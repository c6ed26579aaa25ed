"""Derivation trees, curriculum extraction, and curriculum validation.

A derivation is a finite rooted tree witnessing that a concept belongs to
the closure of a base set: leaves are base concepts, internal nodes apply
one expansion rule to children that supply its prerequisites.  Flattening
a derivation in child-before-parent order yields an ordered curriculum
whose every step has its prerequisites already acquired.

:func:`derive` builds one shared node per concept from the rules of the
mind's forward-chaining layers, the walk whose last iterate is the
closure.  Sharing makes the expanded tree up to exponentially larger than
the DAG, so every walk here visits each distinct node once, with an
explicit stack rather than recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .mind import ExpansionRule, Mind, iter_bits

__all__ = [
    "DerivationTree",
    "Curriculum",
    "derive",
    "verify_derivation",
    "curriculum_from_derivation",
    "validate_curriculum",
]


@dataclass(frozen=True)
class DerivationTree:
    """A node of a derivation: a base leaf (``rule is None``) or a rule application."""

    concept: str
    rule: Optional[ExpansionRule]
    children: tuple["DerivationTree", ...] = ()

    @property
    def is_base(self) -> bool:
        return self.rule is None

    def size(self) -> int:
        """The node count of the expanded tree, each shared subtree counted per occurrence."""
        sizes: dict[int, int] = {}
        for node in _distinct_nodes(self):
            sizes[id(node)] = 1 + sum(sizes[id(child)] for child in node.children)
        return sizes[id(self)]


@dataclass(frozen=True)
class Curriculum:
    """An ordered sequence of rule applications, one concept taught per step."""

    steps: tuple[ExpansionRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def concepts(self) -> tuple[str, ...]:
        return tuple(rule.target for rule in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def _distinct_nodes(tree: DerivationTree) -> list[DerivationTree]:
    """Each distinct node object of ``tree`` once, in post-order of first visit."""
    seen = {id(tree)}
    out: list[DerivationTree] = []
    stack = [(tree, iter(tree.children))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append((child, iter(child.children)))
                break
        else:
            stack.pop()
            out.append(node)
    return out


def derive(mind: Mind, state: Iterable[str], concept: str) -> Optional[DerivationTree]:
    """Build a derivation of ``concept`` from ``state``, or None if underivable.

    One pass over the mind's forward-chaining layers (:meth:`Mind._layers`,
    the walk whose last iterate is the closure), stopping once ``concept``
    appears: a concept is justified in the first layer in which it
    appears, by the least rule in rule order that fires at the layer
    before, and its node is built there from its prerequisites' nodes.
    A concept outside the closure keeps no node, so the result is None.
    """
    space = mind.space
    known = space.mask(state)
    target_bit = space.bit(concept)
    rules = mind._compiled.rules

    nodes: list[Optional[DerivationTree]] = [None] * len(space)  # by concept position
    for bit in iter_bits(known):
        pos = bit.bit_length() - 1
        nodes[pos] = DerivationTree(space.concepts[pos], None)
    if not known & target_bit:
        for known, fresh in mind._layers(known):
            for bit, ri in fresh.items():
                rule = mind.rules[ri]
                kids = tuple(nodes[b.bit_length() - 1] for b in iter_bits(rules[ri][0]))
                nodes[bit.bit_length() - 1] = DerivationTree(rule.target, rule, kids)
            if known & target_bit:
                break
    return nodes[target_bit.bit_length() - 1]


def verify_derivation(mind: Mind, state: Iterable[str], tree: DerivationTree) -> bool:
    """Check a derivation against a mind and a base set.

    Every base leaf must be in ``state``, every rule node must cite a rule
    of the mind whose target is the node's label, and the children must
    carry exactly the rule's prerequisites.
    """
    base = frozenset(state)
    rule_set = set(mind.effective_rules)

    def ok(node: DerivationTree) -> bool:
        if node.rule is None:
            return not node.children and node.concept in base
        if node.rule not in rule_set or node.rule.target != node.concept:
            return False
        child_labels = [child.concept for child in node.children]
        return len(child_labels) == len(node.rule.prereqs) and set(child_labels) == node.rule.prereqs

    return all(ok(node) for node in _distinct_nodes(tree))


def curriculum_from_derivation(tree: DerivationTree) -> Curriculum:
    """Flatten a derivation into a valid ordered curriculum.

    Rule nodes are emitted in child-before-parent order; repeated
    applications of the same rule keep only their first occurrence.
    """
    rules = (node.rule for node in _distinct_nodes(tree) if node.rule is not None)
    return Curriculum(tuple(dict.fromkeys(rules)))


def validate_curriculum(
    mind: Mind, start: Iterable[str], curriculum: Curriculum | Iterable[ExpansionRule]
) -> bool:
    """True iff every step's rule belongs to the mind and fires when used."""
    rule_set = set(mind.effective_rules)
    acquired = set(start)
    for rule in curriculum:
        if rule not in rule_set or not rule.prereqs <= acquired:
            return False
        acquired.add(rule.target)
    return True
