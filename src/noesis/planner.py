"""Fixed-horizon value bounds, thresholds, allocation, and broadcast penalties.

The optimal fixed-horizon success probability is bracketed by a
structural upper bound (only targets within reach can be completed) and
a constructive lower bound (walk the target's chain, then name it).  On
tiny instances the exact optimum is recovered by exhaustive search over
deterministic history-dependent strategies; success probability is
affine in each round's kernel probabilities, so the supremum over
stochastic strategies is attained at a deterministic one and the
restriction loses nothing.  The broadcast construction realizes the
linear penalty of teaching incompatible minds with one shared sequence,
and an A* search over the minds' product states finds the shortest
shared sequence, bounded below by the concepts each mind must still be
taught.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapExceededError, MissingSignalError, UnreachableConceptError
from .mind import ConceptSpace, ExpansionRule, Mind, iter_bits
from .reachability import DEFAULT_STATE_CAP, _added_concepts, _chain_masks
from .signals import SignalSystem
from .teaching import Scenario

__all__ = [
    "ValueEnvelope",
    "AllocationPlan",
    "BroadcastInstance",
    "value_upper",
    "value_lower",
    "value_envelope",
    "deterministic_value",
    "exact_value_tiny",
    "allocate",
    "broadcast_construct",
    "broadcast_check",
    "broadcast_min_length",
]


def _distances(scenario: Scenario) -> list[int]:
    chains = scenario.target_chains
    return [len(chains[target]) - 1 for target in scenario.targets]


def value_upper(scenario: Scenario, t: int) -> float:
    """Prior mass of targets whose structural distance is at most ``t``."""
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    dists = _distances(scenario)
    return sum((p for p, d in zip(scenario.prior, dists) if d <= t), 0.0)


def _untaught(mind: Mind, system: SignalSystem, chain: Sequence[int]) -> Optional[str]:
    """The first concept added along ``chain`` that no token teaches, if any."""
    return next((c for c in _added_concepts(mind.space, chain) if c not in system.fibers), None)


def _direct_feasible(scenario: Scenario) -> bool:
    """Whether every prior-positive target's chain can be signaled."""
    mind, system = scenario.mind, scenario.system
    return all(
        _untaught(mind, system, scenario.target_chains[target]) is None
        for target, weight in zip(scenario.targets, scenario.prior)
        if weight > 0.0
    )


def value_lower(scenario: Scenario, t: int) -> float:
    """Success probability guaranteed by the chain-then-name strategy.

    Takes the larger of the tail bound ``1 - E[completion]/t`` and the
    exact mass of targets that strategy finishes within ``t`` rounds.
    The bound claims nothing (returns 0) when some chain concept of a
    prior-positive target carries no token, since the strategy is then
    unplayable and completion can be impossible outright.
    """
    if t < 1:
        raise ValueError("horizon must be at least 1")
    if not _direct_feasible(scenario):
        return 0.0
    dists = _distances(scenario)
    expected_direct = sum(p * (d + 1) for p, d in zip(scenario.prior, dists))
    # A horizon past the largest float makes E/t round to nothing against 1.
    markov = max(0.0, 1.0 - expected_direct / min(t, sys.float_info.max))
    exact_direct = sum(p for p, d in zip(scenario.prior, dists) if d + 1 <= t)
    return max(markov, exact_direct)


@dataclass(frozen=True)
class ValueEnvelope:
    """Bounds (and optionally the exact value) of the horizon-``t`` success probability."""

    t: int
    upper: float
    lower: float
    exact: Optional[float] = None

    def __post_init__(self) -> None:
        slack = 1e-12
        if not (0.0 - slack <= self.lower <= self.upper + slack <= 1.0 + 2 * slack):
            raise ValueError(f"inconsistent envelope: {self}")
        if self.exact is not None and not (
            self.lower - slack <= self.exact <= self.upper + slack
        ):
            raise ValueError(f"exact value escapes the envelope: {self}")


def value_envelope(scenario: Scenario, t: int, *, exact: bool = False) -> ValueEnvelope:
    """Bundle the bounds, with the exhaustive value when requested.

    The exact value comes first, so its caps refuse a scenario before the
    bounds run the uncapped chain search.
    """
    exact_value = exact_value_tiny(scenario, t) if exact else None
    lower = value_lower(scenario, t) if t >= 1 else 0.0
    return ValueEnvelope(t=t, upper=value_upper(scenario, t), lower=lower, exact=exact_value)


def deterministic_value(mind: Mind, system: SignalSystem, goal: str, t: int) -> int:
    """Fixed-horizon acquisition value for a known target: 0 below its depth, else 1."""
    chain = _chain_masks(mind, goal)
    if chain is None:
        raise UnreachableConceptError(f"target {goal!r} is outside the understanding horizon")
    concept = _untaught(mind, system, chain)
    if concept is not None:
        raise MissingSignalError(f"no signal token teaches chain concept {concept!r}")
    return 0 if t < len(chain) - 1 else 1


# Within these caps at most 3 concepts are added, so the memo holds at most
# 8 state masks x 7 live-target sets x 3 counts of rounds left (1 to 3) = 168
# keys.  Each makes one view call and fills at most 4 outcomes x 7 blocks = 28
# row entries, each a closed form or a memo node one round down, then takes
# the max over at most 4^3 = 64 maps from live targets to outcomes: the search
# needs no cap of its own.
_EXACT_MAX_TARGETS = 3
_EXACT_MAX_TOKENS = 3
_EXACT_MAX_HORIZON = 3


@functools.cache  # keyed by (live targets, outcomes): at most 3 x 4 pairs within the caps
def _labelled_partitions(n: int, c: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """Every map of ``n`` positions to ``c`` labels, as (positions, label) blocks by least member."""
    table = []
    for labels in itertools.product(range(c), repeat=n):
        blocks: dict[int, list[int]] = {}
        for position, label in enumerate(labels):
            blocks.setdefault(label, []).append(position)
        table.append(tuple((tuple(positions), label) for label, positions in blocks.items()))
    return tuple(table)


def exact_value_tiny(scenario: Scenario, t: int) -> float:
    """Exact optimal success probability on a tiny instance.

    Searches all deterministic history-dependent strategies: at each
    search node the teacher picks one token per live target.  Under
    point laws the weights passed down are the prior restricted to the
    live targets, so ``(state, live targets, rounds left)`` fixes a
    node's value, and each node is searched once.

    A node's outcomes come from one :meth:`Scenario.view` call: the child
    of each token that parses (a known concept's token included), and
    the null observation if some token does not.  Its value is the max
    over maps from the live targets to the outcomes, each block of
    targets sharing an outcome worth that child's value, found once per
    block and outcome.  Two child values are read in closed form: a lone
    target whose outcome holds its concept is worth its prior, and any
    other block with no round left after this one is worth ``0.0``.  So
    the search is entered only at nodes it expands or finds in the memo,
    and the root's own two cases are read before it.  A map's blocks are
    summed from ``0.0`` in order of least member, as
    :meth:`Scenario.step` groups outcomes, so the floats are those of
    trying every token choice.  Exceeding the hard caps raises
    :class:`CapExceededError`, naming the cap and the value reached.
    """
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    n_targets, n_tokens = len(scenario.targets), len(scenario.system.tokens)
    if n_targets > _EXACT_MAX_TARGETS:
        raise CapExceededError(
            f"exact search caps targets at {_EXACT_MAX_TARGETS}; the scenario has {n_targets}"
        )
    if n_tokens > _EXACT_MAX_TOKENS:
        raise CapExceededError(
            f"exact search caps the alphabet at {_EXACT_MAX_TOKENS}; the scenario has {n_tokens}"
        )
    if t > _EXACT_MAX_HORIZON:
        raise CapExceededError(
            f"exact search caps the horizon at {_EXACT_MAX_HORIZON}; asked for {t}"
        )

    space = scenario.mind.space
    prior = scenario.prior
    target_bits = [space.bit(target) for target in scenario.targets]
    token_bits = scenario.token_bits.values()
    memo: dict[tuple[int, tuple[int, ...], int], float] = {}

    def best(state_mask: int, live: tuple[int, ...], left: int) -> float:
        key = (state_mask, live, left)
        value = memo.get(key)
        if value is not None:
            return value
        expanded, n_parsed, _ = scenario.view(state_mask)
        children = [state_mask | bit for bit in token_bits if expanded & bit]
        if n_parsed < n_tokens:
            children.append(state_mask)  # the null observation
        rows: dict[tuple[int, ...], list[float]] = {}  # block positions -> value under each outcome
        value = 0.0
        for blocks in _labelled_partitions(len(live), len(children)):
            total = 0.0
            for positions, label in blocks:
                row = rows.get(positions)
                if row is None:
                    block = tuple(live[p] for p in positions)
                    # A lone target already acquired is worth its prior; any
                    # other block with no round left after this one, nothing.
                    done = target_bits[block[0]] if len(block) == 1 else 0
                    if left == 1:
                        row = [prior[block[0]] if child & done else 0.0 for child in children]
                    else:
                        row = [
                            prior[block[0]] if child & done else best(child, block, left - 1)
                            for child in children
                        ]
                    rows[positions] = row
                total += row[label]
            if total > value:
                value = total
        memo[key] = value
        return value

    root = scenario.mind.axiom_mask
    live = tuple(i for i, p in enumerate(prior) if p > 0.0)
    if len(live) == 1 and target_bits[live[0]] & root:
        return prior[live[0]]  # identified and acquired before any round
    if t == 0:
        return 0.0
    return best(root, live, t)


@dataclass(frozen=True)
class AllocationPlan:
    """Concentrated allocation of a round budget across identical learners."""

    learners: int
    budget: int
    depth: int
    rounds: tuple[int, ...]
    completed: int
    even_split_rounds: float
    even_split_completed: int


_ALLOCATE_LEARNER_CAP = 1_000_000


def allocate(learners: int, budget: int, depth: int) -> AllocationPlan:
    """Give ``depth`` rounds to as many learners as the budget affords.

    The concentrated plan completes ``min(learners, budget // depth)``
    learners; the even split completes everyone when each learner clears
    the depth threshold and nobody otherwise.  The plan lists every
    learner's rounds, so the learner count is capped before it is built.
    """
    if learners < 1:
        raise ValueError("need at least one learner")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if learners > _ALLOCATE_LEARNER_CAP:
        raise CapExceededError(f"allocation caps learners at {_ALLOCATE_LEARNER_CAP}; asked for {learners}")
    completed = min(learners, budget // depth)
    rounds = (depth,) * completed + (0,) * (learners - completed)
    try:
        even_rounds = budget / learners
    except OverflowError:
        raise ValueError(f"budget {budget} is too large: its even split has no finite float value") from None
    even_completed = learners if budget // learners >= depth else 0
    return AllocationPlan(
        learners=learners,
        budget=budget,
        depth=depth,
        rounds=rounds,
        completed=completed,
        even_split_rounds=even_rounds,
        even_split_completed=even_completed,
    )


@dataclass(frozen=True)
class BroadcastInstance:
    """Incompatible minds sharing axioms and a target, plus the tight sequence."""

    k: int
    depth: int
    space: ConceptSpace
    axioms: frozenset[str]
    minds: tuple[Mind, ...]
    system: SignalSystem
    target: str
    tight_sequence: tuple[str, ...]

    def __post_init__(self) -> None:
        assert len(self.tight_sequence) == self.k * (self.depth - 1) + 1


_BROADCAST_CONCEPT_CAP = 10_000


def broadcast_construct(k: int, depth: int) -> BroadcastInstance:
    """Build ``k`` minds with private depth-``depth`` chains to a shared target.

    Mind ``i`` unlocks the target only through its own chain of private
    prerequisites; tokens teaching one mind's chain are noise to every
    other mind.  The returned tight sequence walks each chain in turn and
    names the target once, using ``k * (depth - 1) + 1`` rounds.
    """
    if k < 2 or depth < 2:
        raise ValueError("need at least two minds and chains of length two")
    needed = k * (depth - 1) + 2
    if needed > _BROADCAST_CONCEPT_CAP:
        raise CapExceededError(
            f"broadcast instance caps concepts at {_BROADCAST_CONCEPT_CAP}; k={k}, L={depth} needs {needed}"
        )
    private = {(i, j): f"p{i}_{j}" for i in range(1, k + 1) for j in range(1, depth)}
    concepts = ["a"] + [private[(i, j)] for i in range(1, k + 1) for j in range(1, depth)] + ["g"]
    space = ConceptSpace(tuple(concepts))
    minds = []
    for i in range(1, k + 1):
        chain = ["a"] + [private[(i, j)] for j in range(1, depth)] + ["g"]
        rules = tuple(
            ExpansionRule(frozenset({chain[j]}), chain[j + 1]) for j in range(len(chain) - 1)
        )
        minds.append(Mind(space=space, axioms=frozenset({"a"}), rules=rules))
    pairs = [(f"z_{c}", c) for c in concepts if c != "a"]
    system = SignalSystem.from_pairs(pairs)
    tight = tuple(
        f"z_{private[(i, j)]}" for i in range(1, k + 1) for j in range(1, depth)
    ) + ("z_g",)
    return BroadcastInstance(
        k=k,
        depth=depth,
        space=space,
        axioms=frozenset({"a"}),
        minds=tuple(minds),
        system=system,
        target="g",
        tight_sequence=tight,
    )


def broadcast_check(instance: BroadcastInstance, sequence: Sequence[str]) -> tuple[bool, ...]:
    """Replay a shared token sequence for every mind; True where the target lands.

    Each mind's expansion is kept beside its state and grown
    (:meth:`Mind.expand_add`) when a token adds a concept.
    """
    space = instance.space
    target_bit = space.bit(instance.target)
    states = [mind.axiom_mask for mind in instance.minds]
    expanded = [mind.expand_mask(mask) for mind, mask in zip(instance.minds, states)]
    for token in sequence:
        concept_bit = space.bit(instance.system.concept_of(token))
        for i, mind in enumerate(instance.minds):
            if expanded[i] & concept_bit and not states[i] & concept_bit:
                expanded[i] = mind.expand_add(expanded[i], states[i], concept_bit)
                states[i] |= concept_bit
    return tuple(bool(s & target_bit) for s in states)


def _mandatory(mind: Mind, taught: int, target_bit: int) -> Optional[int]:
    """The concepts every shared sequence must teach ``mind`` before it knows the target.

    A learner only ever adds a taught concept that one of its rules
    orders, so the concepts it can reach are the closure of its axioms
    under the rules whose target lies in ``taught``.  Concept ``c`` is
    mandatory when the target leaves that closure once the rules for
    ``c`` are dropped: every learning path to the target passes ``c``.
    Returns None when the target is out of reach altogether.
    """
    axioms = mind.axiom_mask
    reach = mind.closure_mask(axioms, taught)
    if not reach & target_bit:
        return None
    out = 0
    for bit in iter_bits(reach & ~axioms):
        if not mind.closure_mask(axioms, taught & ~bit) & target_bit:
            out |= bit
    return out


def broadcast_min_length(
    instance: BroadcastInstance, *, cap: int = DEFAULT_STATE_CAP
) -> Optional[int]:
    """Length of the shortest shared sequence teaching the target to every mind.

    A* search (Hart, Nilsson and Raphael, 1968) over tuples of per-mind
    state masks, one transition per token; the shared sequence is
    recovered implicitly as the path depth.  The bound on the rounds
    left is the number of distinct concepts that are mandatory (see
    :func:`_mandatory`) for some mind that does not know them yet.  One
    token teaches one concept, so the bound is admissible and consistent;
    it is 0 exactly at goal states and at least 1 elsewhere, so a goal
    found when it is generated is already optimal.  The heap is ordered
    by depth plus bound, ties broken toward greater depth, then by
    insertion order.  Each mind's moves are memoized by state mask:
    every state of it the search meets is expanded one time, into the
    tokens that move it and their successors, and only those tokens are
    tried, in alphabet order.

    Returns None, before any search, when some mind cannot reach the
    target on its own: tokens only add concepts, so a shared sequence
    exists exactly when each mind has one.  Raises
    :class:`CapExceededError` once more than ``cap`` distinct product
    states are stored, the start included.
    """
    space = instance.space
    target_bit = space.bit(instance.target)
    token_bits = [space.bit(c) for c in instance.system.targets]
    minds = instance.minds
    moves: list[dict[int, dict[int, int]]] = [{} for _ in minds]  # per mind: mask -> {token: successor}

    start = tuple(mind.axiom_mask for mind in minds)
    if all(mask & target_bit for mask in start):
        return 0
    taught = space.mask(instance.system.targets)
    mandatory = []
    for mind in minds:
        needed = _mandatory(mind, taught, target_bit)
        if needed is None:
            return None
        mandatory.append(needed)

    def bound(states: tuple[int, ...]) -> int:
        unknown = 0
        for needed, mask in zip(mandatory, states):
            unknown |= needed & ~mask
        return unknown.bit_count()

    depth_of = {start: 0}  # every stored product state -> the least depth found
    heap = [(bound(start), 0, 0, start)]  # (depth + bound, -depth, insertion order, states)
    order = itertools.count(1)
    while heap:
        _, neg_depth, _, states = heapq.heappop(heap)
        depth = -neg_depth
        if depth_of[states] < depth:
            continue  # reached again, shallower, after this entry was pushed
        movers: dict[int, list[tuple[int, int]]] = {}
        for i, mask in enumerate(states):
            out = moves[i].get(mask)
            if out is None:
                fresh = minds[i].expand_mask(mask) & ~mask
                out = moves[i][mask] = {tok: mask | bit for tok, bit in enumerate(token_bits) if fresh & bit}
            for tok, succ in out.items():
                movers.setdefault(tok, []).append((i, succ))
        for tok in sorted(movers):
            moved = list(states)
            for i, succ in movers[tok]:
                moved[i] = succ
            nxt = tuple(moved)
            if depth_of.get(nxt, depth + 2) <= depth + 1:
                continue
            left = bound(nxt)
            if left == 0:
                return depth + 1
            depth_of[nxt] = depth + 1
            if len(depth_of) > cap:
                raise CapExceededError(f"product-state search exceeded {cap} states")
            heapq.heappush(heap, (depth + 1 + left, -depth - 1, next(order), nxt))
    return None
