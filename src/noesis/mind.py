"""Concept spaces, minds, one-step expansion, and closure computation.

A mind couples a finite concept space with a set of axiom concepts and a
list of expansion rules.  Each rule states that mastering a finite
prerequisite set unlocks one further concept.  The induced one-step
expansion operator and its least fixed point (the closure) are the
primitives everything else in the package is built on.

Concept sets are manipulated internally as bit masks over the space's
concept ordering; the public functions accept and return plain
``frozenset`` values of concept labels.  A mind compiles its rules once,
in one pass that validates them and builds its one index: by prerequisite
position, for growing an expansion or a closure one acquired concept at a
time.  The closure (:meth:`Mind.closure_mask`) is a worklist of its own
over that index, with a missing-prerequisite counter per rule.  A second
forward-chaining walk over it (:meth:`Mind._layers`) serves only the
callers that need the iterates of one-step expansion and the rule behind
each new concept: :func:`closure_iterates` lists them, and
:func:`~noesis.derivation.derive` builds its nodes from their rules.
Whether a concept is ordered is read off the state's expansion.  The
closure of the axioms, the understanding horizon, is computed once per
mind (:attr:`Mind.horizon_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Callable, Iterable, Iterator

from .errors import (
    CapExceededError,
    ClosureAxiomError,
    InvalidMindError,
    UnknownConceptError,
)

__all__ = [
    "ConceptSpace",
    "ExpansionRule",
    "Mind",
    "ValidationReport",
    "validate_mind",
    "one_step_expansion",
    "closure",
    "closure_iterates",
    "understanding_horizon",
    "is_ordered",
    "rules_from_closure",
]


_STR_ONLY = {str}


def _frozen(cls, /, **fields):
    """An instance of the frozen dataclass ``cls`` with ``fields`` set directly.

    Neither ``__init__`` nor ``__post_init__`` runs, so the caller passes
    every field, already in its final type; ``==``, ``hash`` and ``repr``
    are those of the dataclass constructor's instance.  Hot loops build
    :class:`ExpansionRule` and :class:`~noesis.teaching.Round` with it.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _plain_tokens(labels: tuple) -> bool:
    """True iff every label is a plain non-empty ``str`` without whitespace and no label repeats.

    The fast test of a label tuple: a caller runs its per-label loop,
    which words the rejection, only when this fails.  ``str.split`` breaks
    at exactly the characters for which ``str.isspace`` holds.
    """
    if not ({*map(type, labels)} <= _STR_ONLY and all(labels) and len(set(labels)) == len(labels)):
        return False
    joined = "".join(labels)
    return joined.split() == [joined]


def _check_label(label: str, kind: str) -> None:
    if not isinstance(label, str) or not label or any(map(str.isspace, label)):
        raise InvalidMindError(f"{kind} must be a non-empty token without whitespace, got {label!r}")


def iter_bits(mask: int):
    """Yield the individual set bits of ``mask``, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


@dataclass(frozen=True)
class ConceptSpace:
    """An ordered, finite collection of distinct concept labels.

    The ordering is significant: it fixes the bit layout of every concept
    set and the tie-break order used by deterministic constructions.
    """

    concepts: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "concepts", tuple(self.concepts))
        if not self.concepts:
            raise InvalidMindError("concept space must be non-empty")
        if _plain_tokens(self.concepts):
            return
        seen: set[str] = set()
        for label in self.concepts:
            _check_label(label, "concept label")
            if label in seen:
                raise InvalidMindError(f"duplicate concept label {label!r}")
            seen.add(label)

    @cached_property
    def index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.concepts)}

    @property
    def full_mask(self) -> int:
        return (1 << len(self.concepts)) - 1

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, label: object) -> bool:
        return label in self.index

    def bit(self, label: str) -> int:
        try:
            return 1 << self.index[label]
        except KeyError:
            raise UnknownConceptError(f"unknown concept {label!r}") from None

    def mask(self, labels: Iterable[str]) -> int:
        """The mask of ``labels``; unknown labels raise, naming the least of them.

        Naming the least one, not the first met, keeps the message the same
        whatever order a ``frozenset`` of labels iterates in.
        """
        index = self.index
        out = 0
        unknown = []
        for label in labels:
            i = index.get(label)
            if i is None:
                unknown.append(label)
            else:
                out |= 1 << i
        if unknown:
            raise UnknownConceptError(f"unknown concept {min(unknown, key=str)!r}")
        return out

    def labels(self, mask: int) -> frozenset[str]:
        return frozenset(self.concepts[bit.bit_length() - 1] for bit in iter_bits(mask))


@dataclass(frozen=True)
class ExpansionRule:
    """One prerequisite rule: knowing every concept in ``prereqs`` unlocks ``target``."""

    prereqs: frozenset[str]
    target: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "prereqs", frozenset(self.prereqs))


@dataclass(frozen=True)
class Mind:
    """A concept space together with axiom concepts and expansion rules.

    Construction is permissive so that :func:`validate_mind` can diagnose
    ill-formed inputs; every operation that interprets the rules raises
    :class:`InvalidMindError` unless the validation report is clean.
    Instances are immutable and safe to share across threads.
    """

    space: ConceptSpace
    axioms: frozenset[str]
    rules: tuple[ExpansionRule, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axioms", frozenset(self.axioms))
        object.__setattr__(self, "rules", tuple(self.rules))

    @cached_property
    def _compiled(self) -> "_CompiledMind":
        """The axiom mask, the rule masks and the by-prerequisite index, built in the pass that validates them.

        An unknown label fails its index lookup, a degenerate rule puts its
        target bit inside its prerequisite mask, and a duplicate rule
        repeats a ``(mask, bit)`` pair.  Any of them rejects the mind with
        :func:`validate_mind`'s summary, which is called only to word the
        rejection.
        """
        index = self.space.index
        axiom_mask = 0
        rules = []
        needing: list[list[int]] = [[] for _ in index]
        clean = True
        try:
            for label in self.axioms:
                axiom_mask |= 1 << index[label]
            for ri, rule in enumerate(self.rules):
                prereq_mask = 0
                for label in rule.prereqs:
                    i = index[label]
                    prereq_mask |= 1 << i
                    needing[i].append(ri)
                target_bit = 1 << index[rule.target]
                if prereq_mask & target_bit:
                    clean = False
                rules.append((prereq_mask, target_bit))
        except KeyError:
            clean = False
        if not clean or len(set(rules)) < len(rules):
            raise InvalidMindError(f"mind rejected by validation: {validate_mind(self).summary()}")
        return _CompiledMind(axiom_mask, tuple(rules), needing)

    @cached_property
    def horizon_mask(self) -> int:
        """The understanding horizon as a mask: the closure of the axioms, computed once."""
        return self.closure_mask(self.axiom_mask)

    @property
    def effective_rules(self) -> tuple[ExpansionRule, ...]:
        """The rule list, once validation has accepted the mind (it rejects duplicates)."""
        self._compiled  # raises InvalidMindError unless validation passed
        return self.rules

    @property
    def axiom_mask(self) -> int:
        return self._compiled.axiom_mask

    def expand_mask(self, mask: int) -> int:
        out = mask
        for prereq_mask, target_bit in self._compiled.rules:
            if prereq_mask & ~mask == 0:
                out |= target_bit
        return out

    def expand_add(self, expanded: int, mask: int, bit: int) -> int:
        """``expand_mask(mask | bit)``, given ``expanded == expand_mask(mask)``.

        Only the rules with ``bit`` among their prerequisites can newly fire.
        The level-by-level knowledge-state sweep
        (``reachability._breadth_first``) grows each state's expansion
        from its parent's with it, and
        :meth:`~noesis.teaching.Scenario.grow_view` the learner's, one
        acquired concept at a time.
        """
        grown = mask | bit
        out = expanded | bit
        rules = self._compiled.rules
        for ri in self._compiled.rules_needing[bit.bit_length() - 1]:
            prereq_mask, target_bit = rules[ri]
            if prereq_mask & ~grown == 0:
                out |= target_bit
        return out

    def closure_mask(self, start: int, within: int = -1) -> int:
        """Least fixed point of the expansion operator containing ``start``.

        Only the rules whose target lies in ``within`` fire (by default
        all of them); the broadcast search closes a learner type under
        the rules a token can act on.  A worklist with a
        missing-prerequisite counter per rule over the by-prerequisite
        index (Dowling and Gallier, 1984): a concept is known when it is
        pushed, each pushed concept counts down the rules needing it once,
        and a rule whose counter reaches zero pushes its target unless it
        is known.  It ends at the last iterate of :meth:`_layers` without
        building any layer.
        """
        rules, needing = self._compiled.rules, self._compiled.rules_needing
        outside = ~start
        missing = [(prereq_mask & outside).bit_count() for prereq_mask, _ in rules]
        known = start
        stack = []
        for (_, target_bit), gap in zip(rules, missing):
            if not gap and target_bit & within and not target_bit & known:
                known |= target_bit
                stack.append(target_bit)
        while stack:
            for ri in needing[stack.pop().bit_length() - 1]:
                missing[ri] -= 1
                if not missing[ri]:
                    target_bit = rules[ri][1]
                    if target_bit & within and not target_bit & known:
                        known |= target_bit
                        stack.append(target_bit)
        return known

    def _layers(self, start: int) -> Iterator[tuple[int, dict[int, int]]]:
        """Yield each strictly larger iterate of one-step expansion from ``start``.

        Only :func:`closure_iterates` and :func:`~noesis.derivation.derive`
        read the layers; :meth:`closure_mask` needs none of them.

        Each iterate comes as ``(mask, fresh)``, where ``fresh`` maps every
        concept bit new in it to the least index, in rule order, of the
        rules firing at the previous iterate with that target.  Forward
        chaining with per-rule missing-prerequisite counters over the mind's
        one by-prerequisite index (Dowling and Gallier, 1984): a concept new at
        an iterate can only come from a rule whose last missing
        prerequisite arrived in the iterate before, so each rule is tested
        once, when its counter reaches zero, not once per iterate.  A new
        bit lies outside ``start``, so in the gap of every rule needing it.
        """
        rules, needing = self._compiled.rules, self._compiled.rules_needing
        missing = [(prereq_mask & ~start).bit_count() for prereq_mask, _ in rules]
        ready = [ri for ri, gap in enumerate(missing) if not gap]
        known = start
        while ready:
            fresh: dict[int, int] = {}
            for ri in ready:
                bit = rules[ri][1]
                if not bit & known:
                    known |= bit
                    fresh[bit] = ri
            if fresh:
                yield known, fresh
            ready = []
            for bit in fresh:
                for ri in needing[bit.bit_length() - 1]:
                    missing[ri] -= 1
                    if not missing[ri]:
                        ready.append(ri)
            ready.sort()


@dataclass(frozen=True)
class _CompiledMind:
    axiom_mask: int
    rules: tuple[tuple[int, int], ...]  # (prerequisite mask, target bit), one per rule
    rules_needing: list[list[int]]  # [prerequisite position]: the indices of the rules needing it, in rule order


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostic findings for a candidate mind.

    ``unknown_concepts`` pairs a rule index with the offending label;
    axiom findings use rule index -1.  ``degenerate_rules`` lists rules
    whose target already sits among its prerequisites.  A mind is
    accepted iff every list is empty.
    """

    axioms_outside_space: tuple[str, ...]
    unknown_concepts: tuple[tuple[int, str], ...]
    degenerate_rules: tuple[int, ...]
    duplicate_rules: tuple[int, ...]

    @property
    def accepted(self) -> bool:
        return not (
            self.axioms_outside_space
            or self.unknown_concepts
            or self.degenerate_rules
            or self.duplicate_rules
        )

    def summary(self) -> str:
        parts = []
        if self.axioms_outside_space:
            parts.append(f"axioms outside space: {sorted(self.axioms_outside_space)}")
        if self.unknown_concepts:
            parts.append(f"unknown concepts in rules: {list(self.unknown_concepts)}")
        if self.degenerate_rules:
            parts.append(f"degenerate rules (target in prereqs) at indices {list(self.degenerate_rules)}")
        if self.duplicate_rules:
            parts.append(f"duplicate rules at indices {list(self.duplicate_rules)}")
        return "; ".join(parts) if parts else "accepted"


def validate_mind(mind: Mind) -> ValidationReport:
    """Check a mind's construction invariants without raising."""
    space = mind.space
    bad_axioms = tuple(sorted(a for a in mind.axioms if a not in space))
    unknown: list[tuple[int, str]] = []
    degenerate: list[int] = []
    duplicates: list[int] = []
    seen: set[ExpansionRule] = set()
    known = space.index.keys()
    for i, rule in enumerate(mind.rules):
        if not known >= rule.prereqs:
            unknown.extend((i, label) for label in sorted(rule.prereqs) if label not in space)
        if rule.target not in space:
            unknown.append((i, rule.target))
        if rule.target in rule.prereqs:
            degenerate.append(i)
        if rule in seen:
            duplicates.append(i)
        seen.add(rule)
    return ValidationReport(
        axioms_outside_space=bad_axioms,
        unknown_concepts=tuple(unknown),
        degenerate_rules=tuple(degenerate),
        duplicate_rules=tuple(duplicates),
    )


def one_step_expansion(mind: Mind, state: Iterable[str]) -> frozenset[str]:
    """Add every concept with a rule whose prerequisites are all in ``state``."""
    mask = mind.space.mask(state)
    return mind.space.labels(mind.expand_mask(mask))


def closure(mind: Mind, state: Iterable[str]) -> frozenset[str]:
    """Least fixed point of one-step expansion containing ``state``."""
    mask = mind.space.mask(state)
    return mind.space.labels(mind.closure_mask(mask))


def closure_iterates(mind: Mind, state: Iterable[str]) -> list[frozenset[str]]:
    """The strictly growing iteration sequence of one-step expansion.

    Returns every distinct iterate, starting at ``state`` and ending at
    the closure: ``state`` and the layers of the forward-chaining walk
    whose last iterate :func:`closure` returns.
    """
    space = mind.space
    start = space.mask(state)
    iterates = [space.labels(start)]
    for _, fresh in mind._layers(start):
        iterates.append(iterates[-1].union([space.concepts[bit.bit_length() - 1] for bit in fresh]))
    return iterates


def understanding_horizon(mind: Mind) -> frozenset[str]:
    """Everything derivable in principle, the closure of the axioms."""
    return mind.space.labels(mind.horizon_mask)


def is_ordered(mind: Mind, state: Iterable[str], concept: str) -> bool:
    """True iff ``concept`` is known or unlocked by one rule firing at ``state``."""
    mask, bit = mind.space.mask(state), mind.space.bit(concept)
    return bool(mask & bit or mind.expand_mask(mask) & bit)


_ORACLE_SPACE_CAP = 12


def rules_from_closure(
    space: ConceptSpace, closure_oracle: Callable[[frozenset[str]], AbstractSet[str]]
) -> tuple[ExpansionRule, ...]:
    """Present an abstract closure operator as an expansion-rule set.

    The oracle is tabulated on every subset of the space and checked for
    extension, idempotence, and monotonicity (single-concept steps imply
    the general case once all subsets are tabulated).  The returned rules
    are ``(S, c)`` for every subset ``S`` and every ``c`` in
    ``oracle(S) - S``; the closure they induce agrees with the oracle on
    every subset.
    """
    n = len(space)
    if n > _ORACLE_SPACE_CAP:
        raise CapExceededError(f"oracle tabulation needs 2^{n} subsets, cap is 2^{_ORACLE_SPACE_CAP}")
    table: list[int] = []
    for m in range(1 << n):
        out = closure_oracle(space.labels(m))
        table.append(space.mask(out))
    for m in range(1 << n):
        if m & ~table[m]:
            raise ClosureAxiomError(
                f"extension fails: oracle drops {sorted(space.labels(m & ~table[m]))} from {sorted(space.labels(m))}"
            )
        if table[table[m]] != table[m]:
            raise ClosureAxiomError(
                f"idempotence fails on {sorted(space.labels(m))}"
            )
        for bit in iter_bits(space.full_mask & ~m):
            if table[m] & ~table[m | bit]:
                raise ClosureAxiomError(
                    f"monotonicity fails between {sorted(space.labels(m))} and "
                    f"{sorted(space.labels(m | bit))}"
                )
    rules: list[ExpansionRule] = []
    for m in range(1 << n):
        prereqs = space.labels(m)
        for bit in iter_bits(table[m] & ~m):
            rules.append(ExpansionRule(prereqs, space.concepts[bit.bit_length() - 1]))
    return tuple(rules)
