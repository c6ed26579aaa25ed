"""The reachable state family and its learning-space structure.

A knowledge state is reachable when it can be built from the axioms by
adding one currently-unlockable concept at a time.  The family of all
such states is union-closed, accessible above the axioms, and spans from
the axiom set up to the understanding horizon; shifting every state by
the axioms yields an antimatroid.  That is a theorem (proved in
:func:`enumerate_reachable`'s docstring), so ``reach`` prints those four
flags without checking them; :func:`check_learning_space` verifies them
on arbitrary families.  The converse also holds: any family with those
properties is the reachable family of a canonical mind.

One breadth-first sweep over knowledge states (``_breadth_first``)
serves the family, which keeps only its states and reads its moves off
them, and the shortest chains to many wanted concepts at once
(``_first_hit_chains``).  The sweep goes level by level: each level is a
list of ``(parent, parent's expansion, added bit)`` entries in discovery
order, read in order, so states, parent pointers and chains are those of
a first-in-first-out search.  It records the first state holding each
wanted concept as it finds it and stops once it has them all.  It
expands only the axioms in full; each later state grows its expansion
from its parent's by reading the rules that need the one added concept,
so a sweep along an n-concept chain costs O(n + the prerequisites of its
rules), not O(n·|rules|).  The chain to the end of a 400-concept chain
takes about 0.6 ms, and the 34 reach families of the benchmark's
``lattice`` workload (seed 1) about 20 ms in all (CPython 3.11, one
core of a Xeon server).  :func:`structural_distance` and
:func:`shortest_chain` run it for one concept per call and cache
nothing; a scenario caches its targets' chains
(``Scenario.target_chains``).

The family lists its states by size, then by sorted labels
(:meth:`ReachableFamily.sorted_label_tuples`) without sorting any label
strings per state: the labels are ranked once, each state becomes one
integer whose bits hold its labels by rank under its count of absent
concepts, and the integers are read from, and the sorted states spelled
from, lazily filled tables per byte.  The 6 families of 1,850 to 2,104
states on 22 concepts of the benchmark's ``lattice`` workload (seed 1)
sort in about 20 ms in all, and a 2,000-concept chain in 0.16 s
(CPython 3.11, one core of a Xeon server).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Optional, Sequence, Union

from .errors import CapExceededError, NotLearningSpaceError, UnreachableConceptError
from .mind import ConceptSpace, ExpansionRule, Mind, iter_bits

__all__ = [
    "DEFAULT_STATE_CAP",
    "ReachableFamily",
    "LearningSpaceReport",
    "enumerate_reachable",
    "check_learning_space",
    "canonical_rules",
    "structural_distance",
    "shortest_chain",
]

DEFAULT_STATE_CAP = 1 << 20


# For each byte, its bits from the lowest up, and from the highest down.
_LOW_BIT_FIRST = tuple(tuple(byte >> j & 1 for j in range(8)) for byte in range(256))
_HIGH_BIT_FIRST = tuple(bits[::-1] for bits in _LOW_BIT_FIRST)


class _KeyTable(dict):
    """Map a byte of a state mask to its part of the state's sort integer.

    ``bits`` holds the key bit of each of the byte's concepts, lowest bit
    first.  An entry is the sum of the key bits of the concepts present
    and ``unit`` per concept absent; it is built the first time it is
    looked up.
    """

    __slots__ = ("bits", "unit")

    def __init__(self, bits: tuple[int, ...], unit: int) -> None:
        super().__init__()
        self.bits, self.unit = bits, unit

    def __missing__(self, byte: int) -> int:
        absent = (len(self.bits) - byte.bit_count()) * self.unit
        value = self[byte] = sum(itertools.compress(self.bits, _LOW_BIT_FIRST[byte]), absent)
        return value


class _SpellTable(dict):
    """Map a byte of a key to its labels, highest bit first, built when first looked up."""

    __slots__ = ("labels",)

    def __init__(self, labels: Sequence[str]) -> None:
        super().__init__()
        self.labels = labels

    def __missing__(self, byte: int) -> tuple[str, ...]:
        value = self[byte] = tuple(itertools.compress(self.labels, _HIGH_BIT_FIRST[byte]))
        return value


def _bytes_of(ints: Iterable[int], length: int, byteorder: str) -> bytes:
    """The ints written one after another, ``length`` bytes each."""
    return b"".join(map(int.to_bytes, ints, itertools.repeat(length), itertools.repeat(byteorder)))


@dataclass(frozen=True, eq=False)
class ReachableFamily:
    """All reachable states of a mind.

    States are stored as bit masks over ``space``; the accessors translate
    to label sets.  Immutable once built.
    """

    space: ConceptSpace
    axioms: frozenset[str]
    horizon: frozenset[str]
    state_masks: frozenset[int]

    @property
    def minimum(self) -> frozenset[str]:
        return self.axioms

    @property
    def maximum(self) -> frozenset[str]:
        return self.horizon

    def __len__(self) -> int:
        return len(self.state_masks)

    def __contains__(self, state: object) -> bool:
        """Membership of a mask, or of any non-string iterable of labels read as a set."""
        if isinstance(state, int):
            return state in self.state_masks
        if isinstance(state, str) or not isinstance(state, Iterable):
            return False
        labels = tuple(state)
        known = all(isinstance(c, str) and c in self.space for c in labels)
        return known and self.space.mask(labels) in self.state_masks

    def states(self) -> list[frozenset[str]]:
        """All states as label sets, sorted by size then by sorted labels."""
        return [frozenset(t) for t in self.sorted_label_tuples()]

    def sorted_label_tuples(self) -> list[tuple[str, ...]]:
        """All states as tuples of sorted labels, in the order of :meth:`states`.

        The labels are ranked once.  Each state gets one integer: its key,
        in which bit ``8w - 1 - r`` holds the label of rank r (w being the
        byte width of a mask), under the count of its absent concepts.
        Among states of one size, the lowest label in which two differ
        decides their tuple order, and it is the highest bit in which their
        keys differ, so sorting the integers in descending order gives the
        order by size, then by sorted labels.  A state's integer is the sum
        of one table entry per byte of its mask; a sorted state is spelled
        from one table entry per byte of its key, lowest ranks first, and
        its parts are chained once.  A table builds an entry the first time
        a state needs it.  A byte that no state touches gets no table, and
        its concepts are left out of the count, which is the same for every
        state; so a wide mind with few states builds little.
        """
        union = functools.reduce(operator.or_, self.state_masks, 0)
        if not union:
            return [()] * len(self.state_masks)
        concepts = self.space.concepts
        width = (len(concepts) + 7) // 8
        unit = 1 << 8 * width
        by_rank = sorted(concepts)
        rank = dict(zip(by_rank, range(len(by_rank))))
        key_tables = {
            i: _KeyTable(tuple(unit >> (1 + rank[c]) for c in concepts[8 * i : 8 * i + 8]), unit)
            for i, byte in enumerate(union.to_bytes(width, "little"))
            if byte
        }
        masks = _bytes_of(self.state_masks, width, "little")
        parts = [map(table.__getitem__, masks[i::width]) for i, table in key_tables.items()]
        order = sorted(map(sum, zip(*parts)), reverse=True)
        # Each sorted integer in big-endian bytes: its count, then its key.
        length = width + (len(concepts).bit_length() + 7) // 8
        keys = _bytes_of(order, length, "big")
        union_key = functools.reduce(operator.or_, order) % unit
        spelled = [
            map(_SpellTable(by_rank[8 * i : 8 * i + 8]).__getitem__, keys[length - width + i :: length])
            for i, byte in enumerate(union_key.to_bytes(width, "big"))
            if byte
        ]
        return list(map(tuple, map(itertools.chain.from_iterable, zip(*spelled))))

    def addable(self, state: Iterable[str]) -> frozenset[str]:
        """The concepts learnable next: the outer fringe, each c with ``state`` + c a state.

        A ``str`` is refused with :class:`TypeError` rather than read as
        one-character labels; ``in`` treats it as no state for the same reason.
        """
        if isinstance(state, str):
            raise TypeError("a state is an iterable of labels, not a str")
        labels = tuple(state)
        mask = self.space.mask(labels)
        if mask not in self.state_masks:
            raise KeyError(f"state {sorted(labels)} is not reachable")
        moves = iter_bits(self.space.full_mask & ~mask)
        return self.space.labels(sum(b for b in moves if mask | b in self.state_masks))


def _breadth_first(
    mind: Mind, wanted: Optional[int] = None, cap: float = math.inf
) -> tuple[dict[int, int], dict[int, int]]:
    """Sweep the reachable states level by level; return parent pointers and first hits.

    ``parent`` maps each found state to its predecessor (-1 for the
    axioms), in the order a first-in-first-out search finds them, moves in
    concept order.  ``first`` maps each bit of ``wanted`` to the first
    found state holding it.  Without ``wanted`` the sweep finds every
    state; with it, the sweep stops once every wanted bit is in a found
    state (bits outside the horizon never are).  It raises
    :class:`CapExceededError` once a state has been expanded and more than
    ``cap`` states have been found.

    A level is a list of ``(parent, parent's expansion, added bit)``
    entries in discovery order.  Only the axioms are expanded in full;
    each later state grows its expansion from its parent's
    (:meth:`Mind.expand_add`) when its entry is reached, so the sweep
    expands, in order, the states a queue would pop, and no others.
    """
    start = mind.axiom_mask
    parent = {start: -1}
    first = dict.fromkeys(iter_bits((wanted or 0) & start), start)
    remaining = (wanted or 0) & ~start
    if wanted is not None and not remaining:
        return parent, first
    expand_add = mind.expand_add
    level = [(start, mind.expand_mask(start), 0)]
    while level:
        found = []
        for state, expanded, added in level:
            if added:
                expanded = expand_add(expanded, state, added)
                state |= added
            moves = expanded & ~state
            while moves:
                bit = moves & -moves
                moves ^= bit
                nxt = state | bit
                if nxt not in parent:
                    parent[nxt] = state
                    found.append((state, expanded, bit))
                    if bit & remaining:
                        first[bit] = nxt
                        remaining ^= bit
                        if not remaining:
                            return parent, first
            if len(parent) > cap:
                raise CapExceededError(f"reachable family exceeds {cap} states")
        level = found
    return parent, first


def enumerate_reachable(mind: Mind, *, cap: int = DEFAULT_STATE_CAP) -> ReachableFamily:
    """Breadth-first enumeration of every reachable state of ``mind``.

    Raises :class:`CapExceededError` once more than ``cap`` states are
    discovered (the family can be exponential in the concept count).

    The family is an axiom-based learning space (Korte, Lovász and
    Schrader, *Greedoids*, 1991; Falmagne and Doignon, *Learning Spaces*,
    2011), so ``reach`` prints the four flags of
    :func:`check_learning_space` as true without checking them:

    - Accessible: every state after the axioms was found by adding one
      concept to a family state, so removing that concept leaves one.
    - Union-closed: expansion is monotone, so a concept unlockable at a
      state is unlockable at every superset; S ∪ T is reached from S by
      adding T's concepts in the order T reached them.
    - Floor: every state contains the axioms, and the axioms are a state.
    - Shift: removing the axioms from every state is one-to-one on
      supersets of the axioms and keeps unions and one-concept steps, so
      the shifted family is an antimatroid.
    """
    parent, _ = _breadth_first(mind, cap=cap)
    return ReachableFamily(
        space=mind.space,
        axioms=mind.space.labels(mind.axiom_mask),
        horizon=mind.space.labels(mind.horizon_mask),
        state_masks=frozenset(parent),
    )


@dataclass(frozen=True)
class LearningSpaceReport:
    """Outcome of the axiom-floor, accessibility, and union-closure checks."""

    has_axiom_floor: bool
    accessible: bool
    union_closed: bool
    shifted_antimatroid: bool

    @property
    def passed(self) -> bool:
        return self.has_axiom_floor and self.accessible and self.union_closed


FamilyLike = Union[ReachableFamily, Iterable[AbstractSet[str]]]


def _family_sets(family: FamilyLike) -> list[frozenset[str]]:
    if isinstance(family, ReachableFamily):
        return [family.space.labels(m) for m in family.state_masks]
    return [frozenset(s) for s in family]


def _family_masks(family: FamilyLike, axioms: AbstractSet[str]) -> tuple[set[int], int]:
    """The family's states and the axioms as masks over one label index."""
    sets = _family_sets(family)
    axioms = frozenset(axioms)
    index: dict[str, int] = {}
    for label in itertools.chain(axioms, *sets):
        index.setdefault(label, len(index))

    def mask(labels: frozenset[str]) -> int:
        return sum(1 << index[label] for label in labels)

    return {mask(s) for s in sets}, mask(axioms)


def _accessible_union_closed(states: AbstractSet[int], base: int) -> tuple[bool, bool]:
    """Accessibility above ``base`` and union closure of a family of masks.

    Accessible: every state other than ``base`` loses some non-base
    concept and stays in the family.  An accessible family is union-closed
    iff ``S, S+x, S+y`` in the family implies ``S+x+y`` is, so it is
    checked on each state's one-step extensions in O(|F|·n²); an
    inaccessible family falls back to the O(|F|²) pairwise test.
    """
    up = dict.fromkeys(states, 0)  # up[s]: the bits x with s + x in the family
    accessible = True
    for s in states:
        lower = False
        for bit in iter_bits(s & ~base):
            if s ^ bit in states:
                up[s ^ bit] |= bit
                lower = True
        if not lower and s != base:
            accessible = False
    if not accessible:
        return False, all(a | b in states for a in states for b in states)
    return True, all(
        s | x | y in states
        for s, ups in up.items()
        for x, y in itertools.combinations(iter_bits(ups), 2)
    )


def check_learning_space(family: FamilyLike, axioms: AbstractSet[str]) -> LearningSpaceReport:
    """Verify the learning-space axioms on an arbitrary state family.

    The family need not come from a mind; degenerate inputs are accepted
    so negative examples (union-closed but inaccessible) can be tested.
    A family from :func:`enumerate_reachable` passes by theorem (see its
    docstring), so ``reach`` prints the flags without calling this; a
    :class:`ReachableFamily` is read through its label sets like any
    other family.

    Union closure of an accessible family uses the local characterization
    of antimatroids (Korte, Lovász and Schrader, *Greedoids*, 1991;
    Doignon and Falmagne, *Knowledge Spaces*, 1999): it holds iff
    ``S, S+x, S+y`` in the family always gives ``S+x+y`` in the family.
    The shifted-antimatroid verdict re-runs the antimatroid axioms on the
    family with the axioms removed from every state, rather than being
    inferred from the other three flags.
    """
    states, base = _family_masks(family, axioms)
    floor = base in states and all(s & base == base for s in states)
    accessible, union_closed = _accessible_union_closed(states, base)
    shifted = {s & ~base for s in states}
    return LearningSpaceReport(
        has_axiom_floor=floor,
        accessible=accessible,
        union_closed=union_closed,
        shifted_antimatroid=0 in shifted and all(_accessible_union_closed(shifted, 0)),
    )


def canonical_rules(
    family: FamilyLike, space: ConceptSpace, axioms: AbstractSet[str]
) -> tuple[ExpansionRule, ...]:
    """The canonical rule set whose reachable family is exactly ``family``.

    One rule per covering pair: whenever a family state plus one concept
    is again a family state, the state itself becomes the prerequisite
    set of that concept.  Raises :class:`NotLearningSpaceError` when the
    family fails :func:`check_learning_space`.
    """
    report = check_learning_space(family, axioms)
    if not report.passed:
        raise NotLearningSpaceError(
            "family is not an axiom-based learning space: "
            f"floor={report.has_axiom_floor} accessible={report.accessible} "
            f"union_closed={report.union_closed}"
        )
    states = set(_family_sets(family))
    rules: list[ExpansionRule] = []
    for s in sorted(states, key=lambda s: (len(s), tuple(sorted(s)))):
        for c in space.concepts:
            if c not in s and (s | {c}) in states:
                rules.append(ExpansionRule(s, c))
    return tuple(rules)


def _first_hit_chains(mind: Mind, wanted: int) -> dict[int, tuple[int, ...]]:
    """Shortest acquisition chains, as masks, to every wanted concept bit at once.

    The sweep stops once every wanted bit is hit; each chain walks the
    parent pointers back from the first state holding its bit.  That state
    is found by adding the bit, and parent pointers do not depend on when
    the sweep stops, so each chain is the one a search for that concept
    alone would find.  Bits outside the horizon are absent.
    """
    start = mind.axiom_mask
    parent, first = _breadth_first(mind, wanted)
    chains = {}
    for bit, state in first.items():
        chain = [state]
        while chain[-1] != start:
            chain.append(parent[chain[-1]])
        chains[bit] = tuple(reversed(chain))
    return chains


def _added_concepts(space: ConceptSpace, chain: Sequence[int]) -> list[str]:
    """The concept each step of a mask ``chain`` adds, in chain order."""
    return [space.concepts[(after ^ before).bit_length() - 1] for before, after in zip(chain, chain[1:])]


def _chain_masks(mind: Mind, concept: str) -> Optional[tuple[int, ...]]:
    """The shortest chain to ``concept`` as masks, or None outside the horizon."""
    bit = mind.space.bit(concept)
    if not mind.horizon_mask & bit:
        return None
    return _first_hit_chains(mind, bit)[bit]


def structural_distance(mind: Mind, concept: str) -> Optional[int]:
    """Length of the shortest acquisition chain reaching ``concept``.

    Zero when the concept is an axiom; None when it lies outside the
    understanding horizon and no chain can reach it.
    """
    chain = _chain_masks(mind, concept)
    return None if chain is None else len(chain) - 1


def shortest_chain(mind: Mind, concept: str) -> tuple[frozenset[str], ...]:
    """A minimum-length witnessing chain from the axioms to ``concept``.

    Deterministic: ties are broken by concept order at every step.
    Raises :class:`UnreachableConceptError` outside the horizon.
    """
    chain = _chain_masks(mind, concept)
    if chain is None:
        raise UnreachableConceptError(f"concept {concept!r} is outside the understanding horizon")
    states = [mind.space.labels(chain[0])]
    for added in _added_concepts(mind.space, chain):
        states.append(states[-1] | {added})
    return tuple(states)
