"""Derivation trees, curriculum extraction, and curriculum validation.

A derivation is a finite rooted tree witnessing that a concept belongs to
the closure of a base set: leaves are base concepts, internal nodes apply
one expansion rule to children that supply its prerequisites.  Flattening
a derivation in child-before-parent order yields an ordered curriculum
whose every step has its prerequisites already acquired.
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
        return 1 + sum(child.size() for child in self.children)


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


def derive(mind: Mind, state: Iterable[str], concept: str) -> Optional[DerivationTree]:
    """Build a derivation of ``concept`` from ``state``, or None if underivable.

    Deterministic construction: concepts are assigned the first expansion
    layer in which they appear, and each derived concept is justified by
    the lowest-index rule that fires at the previous layer.  Recursion is
    on layer number, so the result is always finite; shallow trees come
    out of the layer-minimal choice.
    """
    space = mind.space
    base_mask = mind.require_state(state)
    target_bit = space.bit(concept)

    layers = mind.expansion_layers(base_mask)
    if not layers[-1] & target_bit:
        return None

    layer_of: dict[int, int] = {}
    for depth, mask in enumerate(layers):
        fresh = mask if depth == 0 else mask & ~layers[depth - 1]
        for bit in iter_bits(fresh):
            layer_of[bit] = depth

    rule_for: dict[int, ExpansionRule] = {}
    masked_rules = [(space.mask(r.prereqs), space.bit(r.target), r) for r in mind.effective_rules]
    for bit, depth in layer_of.items():
        if bit & base_mask:
            continue
        prev = layers[depth - 1]
        for prereq_mask, tbit, rule in masked_rules:
            if tbit == bit and prereq_mask & ~prev == 0:
                rule_for[bit] = rule
                break

    memo: dict[int, DerivationTree] = {}

    def build(bit: int) -> DerivationTree:
        if bit in memo:
            return memo[bit]
        label = space.concepts[bit.bit_length() - 1]
        if bit & base_mask:
            node = DerivationTree(label, None)
        else:
            rule = rule_for[bit]
            kids = tuple(build(b) for b in iter_bits(space.mask(rule.prereqs)))
            node = DerivationTree(label, rule, kids)
        memo[bit] = node
        return node

    return build(target_bit)


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
        if len(child_labels) != len(node.rule.prereqs) or set(child_labels) != node.rule.prereqs:
            return False
        return all(ok(child) for child in node.children)

    return ok(tree)


def curriculum_from_derivation(tree: DerivationTree) -> Curriculum:
    """Flatten a derivation into a valid ordered curriculum.

    Rule nodes are emitted in child-before-parent order; repeated
    applications of the same rule keep only their first occurrence.
    """
    steps: list[ExpansionRule] = []
    emitted: set[ExpansionRule] = set()

    def walk(node: DerivationTree) -> None:
        for child in node.children:
            walk(child)
        if node.rule is not None and node.rule not in emitted:
            emitted.add(node.rule)
            steps.append(node.rule)

    walk(tree)
    return Curriculum(tuple(steps))


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
