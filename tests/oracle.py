"""Slow reference implementations, kept only for tests.

The first part is the per-token teaching round that
:meth:`Scenario.step` replaced: every emitted token is parsed against
the frozenset state with this module's :func:`parse` (the twelfth part),
grouped by parsed outcome by hand, and the state is advanced with
:func:`knowledge_update`.  They are
slow and written out once per caller on purpose; the differential tests
compare the mask-level step against them.

The second part is the frozenset learning-space check (pairwise unions,
twice) and the per-state capacity scan that the mask-level local check
and the horizon-state capacity replaced.

The third part is the one-BFS-per-target shortest chain and its callers
(the direct strategy, the value bounds, the deterministic value), which
the scenario's cached chains replaced; the alphabet scan for a fiber
comes with them.

The fourth part is the planner's two searches before they memoized
their nodes: the exact value, maximized afresh at every history through
:meth:`Scenario.step`, and the broadcast search, which expands every
mind at every product state for every token.  The memoized exact value
that tried every token assignment at each node, one ``step`` call per
assignment, before it maximized over labelled partitions of the live
targets, comes with them, and so does the search that maximized over
set partitions of the live targets times injective labellings of their
blocks, with one uniform-law ``step`` call per node for its outcomes,
before one table of maps from live targets to outcomes replaced both
enumerations.  So does that table's search as it was before it read a
lone acquired target and a block in the last round in closed form,
calling itself for every child value (``exact_value_labelled``).

The fifth part is the recursive history tree and the dense audit that
the explicit-stack walks replaced: every internal node builds its
targets x (tokens + 1) parsed table, rebuilds its state mask from the
frozenset, and runs four dense mutual-information passes; the expected
completion time is a second, recursive walk.

The sixth part is the derivation code that the one-pass ``derive`` and
the distinct-node walks replaced: ``derive`` computes every expansion
layer, re-masks every rule for each concept, and builds its shared nodes
with a recursive memo; verification, curriculum extraction and the tree
size walk the expanded tree, visiting every path.  Only the deleted
``Mind.require_state`` and ``Mind.expansion_layers`` are written out
here in their place.

The seventh part is the closure three ways: the counter-based closure
that built its own by-prerequisite index of the missing bits on every
call, before it read the mind's one index (``_CompiledMind.rules_needing``);
the iterates of one-step expansion, one full rule scan
(``Mind.expand_mask``) per iterate, as ``closure_iterates`` listed them
before they came from the closure's forward-chaining walk; and the
closure under the rules whose target lies in a given set, written label
by label over ``mind.rules``.

The eighth part is the reachable-family enumeration with its own queue
and seen-set, which stored every state's one-step moves
(``addable_masks``) before the family shared one breadth-first search
with the shortest chains and read its moves off its states.

The ninth part is the JSON writer that the explicit-stack
``fileio.dump_json`` replaced: a recursive copy with every float rounded
to 12 significant digits, written by ``json.dumps(..., indent=2)``.

The tenth part is the sparse audit's general restricted mutual
information, through which it computed the erasure half of the
relativity law (the parsed table restricted to its null column) before
that half read each row's null cell alone.

The eleventh part is the reachable family's sort as it was: every state
spelled bit by bit, its labels sorted, and the tuples sorted by length,
then by their labels, before one integer rank key per state and tables
per byte replaced it.

The twelfth part is the parse test that read the rules targeting one
concept (the deleted ``Mind.is_ordered_mask``), written label by label
over ``mind.rules``: ``is_ordered``, ``parse`` through it, and the
broadcast replay that ran it once per token and mind before each mind's
expansion was grown beside its state.  The searches above that step
pass the step a full expansion of the state (``Scenario.view``), never
a grown one.

The thirteenth part is the loader as it was before it tested entries
inline: every field and entry through ``_need``/``_need_strings``, with
its message formatted on the way, every concept label and signal token
through its per-label loop, and the mind compiled after a full
:func:`validate_mind` pass (:func:`compiled`).  The spaces, signal
systems and compiled minds it builds carry only these checks: their own
constructors and ``Mind._compiled`` never run on them.

The fourteenth part is the trace writers as they were before
``fileio.dump_traces`` wrote the trace layout straight from the episode:
``fileio.dump_json`` over :func:`trace_to_dict`'s dicts, one trace or a
list, and the CSV export, each round's state sorted and joined afresh.

The fifteenth part is the knowledge-state search as it was before one
level-by-level sweep replaced it: a generator over a queue of
``(parent, parent's expansion, added bit)`` entries that yields each
found state, and the first-hit chains that test every yielded state for
a wanted bit.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import AbstractSet, Any, Iterable, Mapping, Optional, Sequence

from noesis import (
    CapExceededError,
    ConceptSpace,
    Curriculum,
    DerivationTree,
    ExpansionRule,
    FormatError,
    HistoryNode,
    HistoryTree,
    InvalidMindError,
    MissingSignalError,
    Mind,
    NoesisError,
    Scenario,
    UnreachableConceptError,
    ZeroProbabilityError,
    capacity,
    entropy_bits,
    knowledge_update,
    validate_mind,
)
from noesis.audit import _EXACT_TOL, AUDIT_TOL, DEFAULT_NODE_CAP, AuditReport, LawVerdict
from noesis.information import mutual_information_cells
from noesis.fileio import _NULL_TOKEN, LoadedScenario, _finite, _need, _need_strings, _read_json
from noesis.fileio import dump_json as fileio_dump_json
from noesis.mind import _CompiledMind, _check_label, _frozen, iter_bits, understanding_horizon
from noesis.planner import (
    _EXACT_MAX_HORIZON,
    _EXACT_MAX_TARGETS,
    _EXACT_MAX_TOKENS,
    BroadcastInstance,
    _labelled_partitions,
)
from noesis.reachability import DEFAULT_STATE_CAP, FamilyLike, LearningSpaceReport, ReachableFamily
from noesis.signals import SignalSystem, capacity_from_count
from noesis.teaching import (
    POINT_MASS_TOL,
    EpisodeTrace,
    Round,
    StrategySpec,
    emission_distribution,
    emission_laws,
)


def parsed_likelihood(scenario, strategy, history, state, parsed) -> list[float]:
    """P(next parsed observation = parsed | target, history), per target."""
    out = []
    for target in scenario.targets:
        dist = emission_distribution(strategy, target, history)
        out.append(
            sum(
                p
                for token, p in dist.items()
                if parse(scenario.mind, scenario.system, token, state) == parsed
            )
        )
    return out


def posterior_after(scenario, strategy, history) -> tuple[float, ...]:
    belief = list(scenario.prior)
    prefix: tuple = ()
    state = frozenset(scenario.mind.axioms)
    for parsed in history:
        like = parsed_likelihood(scenario, strategy, prefix, state, parsed)
        belief = [b * l for b, l in zip(belief, like)]
        total = sum(belief)
        if total <= 0.0:
            raise ZeroProbabilityError(f"history {prefix + (parsed,)} has probability zero")
        belief = [b / total for b in belief]
        state = knowledge_update(scenario.mind, scenario.system, state, parsed)
        prefix = prefix + (parsed,)
    return tuple(belief)


def _sample(rng: random.Random, items, probs):
    u = rng.random()
    acc = 0.0
    for item, p in zip(items, probs):
        acc += p
        if u < acc:
            return item
    return items[-1]


def run_episode(scenario, strategy, horizon: int, seed: int, theta: Optional[str] = None):
    if theta is None:
        theta = _sample(random.Random(f"{seed}:theta"), scenario.targets, scenario.prior)
    theta_idx = scenario.target_index[theta]
    state = frozenset(scenario.mind.axioms)
    belief = list(scenario.prior)
    history: tuple = ()
    tau = tau_id = None

    def identified() -> bool:
        return max(belief) >= 1.0 - POINT_MASS_TOL

    if identified():
        tau_id = 0
        if theta in state and belief[theta_idx] >= 1.0 - POINT_MASS_TOL:
            tau = 0
    rounds = []
    for t in range(1, horizon + 1):
        dist = emission_distribution(strategy, theta, history)
        tokens = [tok for tok in dist if dist[tok] > 0.0]
        emitted = _sample(
            random.Random(f"{seed}:round:{t}"), tokens, [dist[tok] for tok in tokens]
        )
        parsed = parse(scenario.mind, scenario.system, emitted, state)
        like = parsed_likelihood(scenario, strategy, history, state, parsed)
        belief = [b * l for b, l in zip(belief, like)]
        total = sum(belief)
        if total <= 0.0:
            raise ZeroProbabilityError(f"history {history + (parsed,)} has probability zero")
        belief = [b / total for b in belief]
        state = knowledge_update(scenario.mind, scenario.system, state, parsed)
        history = history + (parsed,)
        rounds.append(
            Round(
                t=t,
                emitted=emitted,
                parsed=parsed,
                state=state,
                belief=tuple(belief),
                entropy_bits=entropy_bits(belief),
                capacity_bits=capacity(scenario.mind, scenario.system, state),
            )
        )
        if tau_id is None and identified():
            tau_id = t
        if tau is None and theta in state and belief[theta_idx] >= 1.0 - POINT_MASS_TOL:
            tau = t
    return EpisodeTrace(theta, seed, horizon, tuple(rounds), tau, tau_id)


def build_history_tree(scenario, strategy, horizon: int) -> HistoryTree:
    mind, system = scenario.mind, scenario.system
    tokens = system.tokens
    n_targets = len(scenario.targets)
    count = 0

    def make_node(history, state, joint) -> HistoryNode:
        nonlocal count
        count += 1
        prob = sum(joint)
        belief = tuple(j / prob for j in joint)
        node = HistoryNode(
            history=history,
            prob=prob,
            state=state,
            joint=tuple(joint),
            belief=belief,
            entropy_bits=entropy_bits(belief),
            emission=None,
        )
        if len(history) == horizon:
            return node
        emission_rows = []
        child_joint: dict = {}
        for i, target in enumerate(scenario.targets):
            if joint[i] <= 0.0:
                emission_rows.append(tuple(0.0 for _ in tokens))
                continue
            dist = emission_distribution(strategy, target, history)
            emission_rows.append(tuple(belief[i] * dist.get(tok, 0.0) for tok in tokens))
            for tok, p in dist.items():
                if p <= 0.0:
                    continue
                parsed = parse(mind, system, tok, state)
                row = child_joint.setdefault(parsed, [0.0] * n_targets)
                row[i] += joint[i] * p
        node.emission = tuple(emission_rows)
        for parsed in list(tokens) + [None]:
            if parsed not in child_joint:
                continue
            sub_joint = child_joint[parsed]
            if sum(sub_joint) <= 0.0:
                continue
            child_state = knowledge_update(mind, system, state, parsed)
            node.children[parsed] = make_node(history + (parsed,), child_state, sub_joint)
        return node

    root = make_node((), frozenset(scenario.mind.axioms), list(scenario.prior))
    return HistoryTree(scenario=scenario, horizon=horizon, root=root, node_count=count)


def exact_value_tiny(scenario, t: int) -> float:
    mind, system = scenario.mind, scenario.system
    tokens = system.tokens

    def best(state, joint, depth) -> float:
        live = [i for i, p in enumerate(joint) if p > 0.0]
        mass = sum(joint[i] for i in live)
        if len(live) == 1 and scenario.targets[live[0]] in state:
            return mass
        if depth == t:
            return 0.0
        value = 0.0
        for assignment in itertools.product(range(len(tokens)), repeat=len(live)):
            groups: dict = {}
            for i, tok_idx in zip(live, assignment):
                parsed = parse(mind, system, tokens[tok_idx], state)
                row = groups.setdefault(parsed, [0.0] * len(joint))
                row[i] += joint[i]
            total = 0.0
            for parsed, sub in groups.items():
                child_state = state if parsed is None else state | {system.concept_of(parsed)}
                total += best(child_state, tuple(sub), depth + 1)
            value = max(value, total)
        return value

    return best(frozenset(mind.axioms), scenario.prior, 0)


# --- learning-space check and capacity -------------------------------------


def _family_sets(family: FamilyLike) -> list[frozenset[str]]:
    if isinstance(family, ReachableFamily):
        return [family.space.labels(m) for m in family.state_masks]
    return [frozenset(s) for s in family]


def check_learning_space(family: FamilyLike, axioms: AbstractSet[str]) -> LearningSpaceReport:
    """Verify the learning-space axioms on an arbitrary state family.

    The family need not come from a mind; degenerate inputs are accepted
    so negative examples (union-closed but inaccessible) can be tested.
    The shifted-antimatroid verdict re-runs the antimatroid axioms on the
    family with the axioms removed from every state, rather than being
    inferred from the other three flags.
    """
    states = set(_family_sets(family))
    base = frozenset(axioms)

    floor = base in states and all(base <= s for s in states)
    accessible = all(
        any(s - {x} in states for x in s - base) for s in states if s != base
    )
    union_closed = all(a | b in states for a in states for b in states)

    shifted = {s - base for s in states}
    shifted_ok = (
        frozenset() in shifted
        and all(
            any(s - {x} in shifted for x in s) for s in shifted if s
        )
        and all(a | b in shifted for a in shifted for b in shifted)
    )
    return LearningSpaceReport(
        has_axiom_floor=floor,
        accessible=accessible,
        union_closed=union_closed,
        shifted_antimatroid=shifted_ok,
    )


def max_capacity(mind: Mind, system: SignalSystem, family: ReachableFamily) -> float:
    """Largest per-state capacity across a reachable family.

    Monotonicity puts the maximum at the horizon, but every state is
    evaluated so the function also serves as an oracle for that fact.
    """
    concept_bits = [mind.space.bit(c) for c in system.targets]
    most = 0  # capacity grows with the ordered count, so the largest count decides
    for state_mask in family.state_masks:
        expanded = mind.expand_mask(state_mask)
        most = max(most, sum(1 for b in concept_bits if expanded & b))
    return capacity_from_count(most, len(system.tokens))


# --- shortest chains and their callers --------------------------------------


def fiber(system: SignalSystem, concept: str) -> tuple[str, ...]:
    """All tokens teaching ``concept``, in alphabet order."""
    return tuple(t for t, c in zip(system.tokens, system.targets) if c == concept)


def _bfs_to_concept(mind: Mind, concept: str):
    """BFS over reachable states; stops at the first state containing ``concept``.

    Expansion follows concept order, so the discovered chain is the
    deterministic tie-break choice.  Returns the chain of masks or None.
    """
    target_bit = mind.space.bit(concept)
    start = mind.axiom_mask
    if start & target_bit:
        return [start]
    parent: dict[int, int] = {start: -1}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for bit in iter_bits(mind.expand_mask(state) & ~state):
            nxt = state | bit
            if nxt in parent:
                continue
            parent[nxt] = state
            if bit == target_bit:
                chain = [nxt]
                while parent[chain[-1]] != -1:
                    chain.append(parent[chain[-1]])
                chain.reverse()
                return chain
            queue.append(nxt)
    return None


def structural_distance(mind: Mind, concept: str) -> Optional[int]:
    if not mind.closure_mask(mind.axiom_mask) & mind.space.bit(concept):
        return None
    chain = _bfs_to_concept(mind, concept)
    assert chain is not None  # concept is in the horizon, so BFS must reach it
    return len(chain) - 1


def shortest_chain(mind: Mind, concept: str) -> tuple[frozenset[str], ...]:
    if not mind.closure_mask(mind.axiom_mask) & mind.space.bit(concept):
        raise UnreachableConceptError(f"concept {concept!r} is outside the understanding horizon")
    chain = _bfs_to_concept(mind, concept)
    assert chain is not None
    return tuple(mind.space.labels(m) for m in chain)


def direct_strategy(scenario):
    mind, system = scenario.mind, scenario.system
    # Axioms are never acquired along a chain, so they need no token.
    for concept in sorted(understanding_horizon(scenario.mind) - scenario.mind.axioms):
        if not fiber(system, concept):
            raise MissingSignalError(f"no signal token teaches horizon concept {concept!r}")
    plans: dict[str, tuple[str, ...]] = {}
    for target in scenario.targets:
        chain = shortest_chain(mind, target)
        added = [
            next(iter(after - before))
            for before, after in zip(chain, chain[1:])
        ]
        plans[target] = tuple(fiber(system, c)[0] for c in added) + (fiber(system, target)[0],)

    def kernel(target: str, history: tuple) -> Mapping[str, float]:
        plan = plans[target]
        return {plan[min(len(history), len(plan) - 1)]: 1.0}

    return kernel


def _distances(scenario) -> list[int]:
    out = []
    for target in scenario.targets:
        dist = structural_distance(scenario.mind, target)
        assert dist is not None  # scenario targets are confined to the horizon
        out.append(dist)
    return out


def value_upper(scenario, t: int) -> float:
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    dists = _distances(scenario)
    return sum(p for p, d in zip(scenario.prior, dists) if d <= t)


def _direct_feasible(scenario) -> bool:
    for target, weight in zip(scenario.targets, scenario.prior):
        if weight <= 0.0:
            continue
        chain = shortest_chain(scenario.mind, target)
        for before, after in zip(chain, chain[1:]):
            if not fiber(scenario.system, next(iter(after - before))):
                return False
    return True


def value_lower(scenario, t: int) -> float:
    if t < 1:
        raise ValueError("horizon must be at least 1")
    if not _direct_feasible(scenario):
        return 0.0
    dists = _distances(scenario)
    expected_direct = sum(p * (d + 1) for p, d in zip(scenario.prior, dists))
    markov = max(0.0, 1.0 - expected_direct / t)
    exact_direct = sum(p for p, d in zip(scenario.prior, dists) if d + 1 <= t)
    return max(markov, exact_direct)


def deterministic_value(mind: Mind, system: SignalSystem, goal: str, t: int) -> int:
    if not mind.closure_mask(mind.axiom_mask) & mind.space.bit(goal):
        raise UnreachableConceptError(f"target {goal!r} is outside the understanding horizon")
    chain = shortest_chain(mind, goal)
    for before, after in zip(chain, chain[1:]):
        concept = next(iter(after - before))
        if not fiber(system, concept):
            raise MissingSignalError(f"no signal token teaches chain concept {concept!r}")
    return 0 if t < len(chain) - 1 else 1


# --- the planner's searches, one expansion per history ---------------------

_EXACT_OP_CAP = 10_000_000


def exact_value_per_history(scenario: Scenario, t: int) -> float:
    """Exact optimal success probability on a tiny instance.

    Searches all deterministic history-dependent strategies by
    maximizing independently over the teacher's choice at every reachable
    history (one token per live target).  Hard caps keep the search
    tractable; exceeding them raises :class:`CapExceededError`.
    """
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    if len(scenario.targets) > _EXACT_MAX_TARGETS:
        raise CapExceededError(f"exact search caps targets at {_EXACT_MAX_TARGETS}")
    if len(scenario.system.tokens) > _EXACT_MAX_TOKENS:
        raise CapExceededError(f"exact search caps the alphabet at {_EXACT_MAX_TOKENS}")
    if t > _EXACT_MAX_HORIZON:
        raise CapExceededError(f"exact search caps the horizon at {_EXACT_MAX_HORIZON}")

    space = scenario.mind.space
    target_bits = [space.bit(target) for target in scenario.targets]
    point_laws = [{tok: 1.0} for tok in scenario.system.tokens]
    ops = 0

    def best(state_mask: int, joint: Sequence[float], depth: int) -> float:
        nonlocal ops
        live = [i for i, p in enumerate(joint) if p > 0.0]
        mass = sum(joint[i] for i in live)
        if len(live) == 1 and target_bits[live[0]] & state_mask:
            return mass  # identified and acquired: completed at this depth
        if depth == t:
            return 0.0
        value = 0.0
        expanded = scenario.view(state_mask)[0]
        laws: list[Optional[dict[str, float]]] = [None] * len(joint)
        for assignment in itertools.product(point_laws, repeat=len(live)):
            ops += 1
            if ops > _EXACT_OP_CAP:
                raise CapExceededError(f"exact search exceeded {_EXACT_OP_CAP} strategy evaluations")
            for i, law in zip(live, assignment):
                laws[i] = law
            total = 0.0
            for child_mask, sub in scenario.step(state_mask, expanded, laws, joint).values():
                total += best(child_mask, sub, depth + 1)
            value = max(value, total)
        return value

    return best(scenario.mind.axiom_mask, scenario.prior, 0)


def exact_value_memoized(scenario: Scenario, t: int) -> float:
    """The exact value searched once per ``(state, live targets, depth)``.

    Each node tries all |tokens|^|live| token assignments, one
    :meth:`Scenario.step` call each.
    """
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    if len(scenario.targets) > _EXACT_MAX_TARGETS:
        raise CapExceededError(f"exact search caps targets at {_EXACT_MAX_TARGETS}")
    if len(scenario.system.tokens) > _EXACT_MAX_TOKENS:
        raise CapExceededError(f"exact search caps the alphabet at {_EXACT_MAX_TOKENS}")
    if t > _EXACT_MAX_HORIZON:
        raise CapExceededError(f"exact search caps the horizon at {_EXACT_MAX_HORIZON}")

    space = scenario.mind.space
    target_bits = [space.bit(target) for target in scenario.targets]
    point_laws = [{tok: 1.0} for tok in scenario.system.tokens]
    memo: dict[tuple[int, tuple[int, ...], int], float] = {}

    def best(state_mask: int, joint: Sequence[float], depth: int) -> float:
        live = tuple(i for i, p in enumerate(joint) if p > 0.0)
        key = (state_mask, live, depth)
        if key in memo:
            return memo[key]
        mass = sum(joint[i] for i in live)
        if len(live) == 1 and target_bits[live[0]] & state_mask:
            return mass  # identified and acquired: completed at this depth
        if depth == t:
            return 0.0
        value = 0.0
        expanded = scenario.view(state_mask)[0]
        laws: list[Optional[dict[str, float]]] = [None] * len(joint)
        for assignment in itertools.product(point_laws, repeat=len(live)):
            for i, law in zip(live, assignment):
                laws[i] = law
            total = 0.0
            for child_mask, sub in scenario.step(state_mask, expanded, laws, joint).values():
                total += best(child_mask, sub, depth + 1)
            value = max(value, total)
        memo[key] = value
        return value

    return best(scenario.mind.axiom_mask, scenario.prior, 0)


def _set_partitions(items: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every set partition of ``items``, its blocks ordered by least member."""
    partitions: list[tuple[tuple[int, ...], ...]] = [()]
    for item in items:
        partitions = [
            blocks[:j] + (blocks[j] + (item,),) + blocks[j + 1 :]
            for blocks in partitions
            for j in range(len(blocks))
        ] + [blocks + ((item,),) for blocks in partitions]
    return tuple(partitions)


def exact_value_partitions(scenario: Scenario, t: int) -> float:
    """The exact value searched once per ``(state, live targets, depth)``, over partitions.

    Each node makes one :meth:`Scenario.step` call, with a uniform law
    over the alphabet, for its outcomes, then maximizes over every set
    partition of the live targets with at most as many blocks as
    outcomes, times every injective labelling of its blocks by outcomes.
    """
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    n_tokens = len(scenario.system.tokens)
    if len(scenario.targets) > _EXACT_MAX_TARGETS:
        raise CapExceededError(f"exact search caps targets at {_EXACT_MAX_TARGETS}")
    if n_tokens > _EXACT_MAX_TOKENS:
        raise CapExceededError(f"exact search caps the alphabet at {_EXACT_MAX_TOKENS}")
    if t > _EXACT_MAX_HORIZON:
        raise CapExceededError(f"exact search caps the horizon at {_EXACT_MAX_HORIZON}")

    space = scenario.mind.space
    prior = scenario.prior
    target_bits = [space.bit(target) for target in scenario.targets]
    uniform = [{tok: 1.0 / n_tokens for tok in scenario.system.tokens}]
    memo: dict[tuple[int, tuple[int, ...], int], float] = {}

    def best(state_mask: int, live: tuple[int, ...], depth: int) -> float:
        key = (state_mask, live, depth)
        if key in memo:
            return memo[key]
        if len(live) == 1 and target_bits[live[0]] & state_mask:
            return prior[live[0]]  # identified and acquired: completed at this depth
        if depth == t:
            return 0.0
        outcomes = scenario.step(state_mask, scenario.view(state_mask)[0], uniform, [1.0])
        children = [child for child, _ in outcomes.values()]
        labels = range(len(children))
        rows: dict[tuple[int, ...], list[float]] = {}  # block -> its value under each outcome
        value = 0.0
        for blocks in _set_partitions(live):
            if len(blocks) > len(children):
                continue  # no labelling, and its blocks may be no strategy's children
            block_rows = []
            for block in blocks:
                row = rows.get(block)
                if row is None:
                    row = rows[block] = [best(child, block, depth + 1) for child in children]
                block_rows.append(row)
            for labelling in itertools.permutations(labels, len(blocks)):
                total = 0.0
                for row, k in zip(block_rows, labelling):
                    total += row[k]
                if total > value:
                    value = total
        memo[key] = value
        return value

    return best(scenario.mind.axiom_mask, tuple(i for i, p in enumerate(prior) if p > 0.0), 0)


def exact_value_labelled(scenario: Scenario, t: int) -> float:
    """The exact value with every child value found by a call one round down.

    ``exact_value_tiny`` as it was before it read finished targets and
    last-round blocks in closed form: each node is searched once with one
    :meth:`Scenario.view` call, but the search is also entered at every
    node it answers with a constant, an identified and acquired target or
    no rounds left.
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
        if key in memo:
            return memo[key]
        if len(live) == 1 and target_bits[live[0]] & state_mask:
            return prior[live[0]]  # identified and acquired: completed with rounds to spare
        if left == 0:
            return 0.0
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
                    row = rows[positions] = [best(child, block, left - 1) for child in children]
                total += row[label]
            if total > value:
                value = total
        memo[key] = value
        return value

    return best(scenario.mind.axiom_mask, tuple(i for i, p in enumerate(prior) if p > 0.0), t)


def broadcast_min_length(
    instance: BroadcastInstance, *, cap: int = DEFAULT_STATE_CAP
) -> Optional[int]:
    """Length of the shortest shared sequence teaching the target to every mind.

    Breadth-first search over tuples of per-mind states, one transition
    per token; the shared sequence is recovered implicitly as the path
    depth.  Returns None when no sequence works, and raises
    :class:`CapExceededError` past ``cap`` visited product states.
    """
    space = instance.space
    target_bit = space.bit(instance.target)
    token_bits = [space.bit(c) for c in instance.system.targets]

    def done(states: tuple[int, ...]) -> bool:
        return all(s & target_bit for s in states)

    start = tuple(mind.axiom_mask for mind in instance.minds)
    if done(start):
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        states, depth = frontier.popleft()
        for bit in token_bits:
            nxt = tuple(
                s | bit if mind.expand_mask(s) & bit else s
                for s, mind in zip(states, instance.minds)
            )
            if nxt in seen:
                continue
            if done(nxt):
                return depth + 1
            seen.add(nxt)
            if len(seen) > cap:
                raise CapExceededError(f"product-state search exceeded {cap} states")
            frontier.append((nxt, depth + 1))
    return None


# --- the recursive history tree and the dense audit -------------------------


def build_history_tree_recursive(
    scenario: Scenario,
    strategy,
    horizon: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
) -> HistoryTree:
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    tokens = scenario.system.tokens
    outcome_order = (*tokens, None)
    zero_row = (0.0,) * len(tokens)
    states: dict[int, frozenset[str]] = {}  # one label set per distinct state
    count = 0

    def make_node(history: tuple, mask: int, joint: list[float]) -> HistoryNode:
        nonlocal count
        count += 1
        if count > node_cap:
            raise CapExceededError(f"history tree exceeds {node_cap} nodes")
        prob = sum(joint)
        belief = tuple(j / prob for j in joint)
        state = states.get(mask)
        if state is None:
            state = states[mask] = scenario.mind.space.labels(mask)
        node = HistoryNode(
            history=history,
            prob=prob,
            state=state,
            joint=tuple(joint),
            belief=belief,
            entropy_bits=entropy_bits(belief),
            emission=None,
        )
        if len(history) == horizon:
            return node
        laws = emission_laws(scenario, strategy, history, joint)
        node.emission = tuple(
            zero_row if law is None else tuple(b * law.get(tok, 0.0) for tok in tokens)
            for b, law in zip(belief, laws)
        )
        outcomes = scenario.step(mask, scenario.view(mask)[0], laws, joint)
        for parsed in outcome_order:
            if parsed in outcomes:
                child_mask, child_joint = outcomes[parsed]
                node.children[parsed] = make_node(history + (parsed,), child_mask, child_joint)
        return node

    root = make_node((), scenario.mind.axiom_mask, list(scenario.prior))
    return HistoryTree(scenario=scenario, horizon=horizon, root=root, node_count=count)


def mutual_information_dense(joint: Sequence[Sequence[float]]) -> float:
    row_marg = [sum(row) for row in joint]
    col_marg = [sum(col) for col in zip(*joint)]
    total = 0.0
    for i, row in enumerate(joint):
        for j, p in enumerate(row):
            if p > 0.0:
                total += p * math.log2(p / (row_marg[i] * col_marg[j]))
    return total


def _dense_mi_entropy_drop(node: HistoryNode) -> float:
    expected_child = sum(
        (child.prob / node.prob) * child.entropy_bits for child in node.children.values()
    )
    return node.entropy_bits - expected_child


def _dense_ordered_cols(scenario: Scenario, state: frozenset[str]) -> list[int]:
    expanded = scenario.mind.expand_mask(scenario.mind.space.mask(state))
    ordered = frozenset(tok for tok, bit in scenario.token_bits.items() if expanded & bit)
    return [j for j, tok in enumerate(scenario.system.tokens) if tok in ordered]


def _dense_parsed_joint_table(node: HistoryNode, ordered_cols: list[int]) -> list[list[float]]:
    assert node.emission is not None
    table = []
    for row in node.emission:
        out = [0.0] * (len(row) + 1)
        for j, p in enumerate(row):
            if p > 0.0:
                out[j if j in ordered_cols else -1] += p
        table.append(out)
    return table


def round_mutual_info_from_joint_dense(tree: HistoryTree, node: HistoryNode) -> float:
    if node.is_leaf:
        raise ValueError("leaf node has no next round")
    return mutual_information_dense(
        _dense_parsed_joint_table(node, _dense_ordered_cols(tree.scenario, node.state))
    )


def _dense_verdict(law: str, worst: float, witness) -> LawVerdict:
    if worst > AUDIT_TOL:
        return LawVerdict(law, "fail", worst, witness)
    return LawVerdict(law, "pass", worst, None)


def _dense_restricted_mi(table: list[list[float]], keep_cols: list[int]) -> float:
    sub = [[row[j] for j in keep_cols] for row in table]
    mass = sum(sum(row) for row in sub)
    if mass <= 0.0:
        return 0.0
    return mutual_information_dense([[p / mass for p in row] for row in sub])


def audit_all_dense(tree: HistoryTree, scenario: Optional[Scenario] = None) -> AuditReport:
    scenario = tree.scenario if scenario is None else scenario
    system = scenario.system
    n_tokens = len(system.tokens)

    worst_drop = (0.0, None)
    worst_super = (0.0, None)
    worst_cap = (0.0, None)
    worst_rel = (0.0, None)
    worst_reph = (0.0, None)
    chain_sum = 0.0
    budget_sum = 0.0

    for node in tree.internal_nodes():
        ordered_cols = _dense_ordered_cols(scenario, node.state)
        state_capacity = capacity_from_count(len(ordered_cols), n_tokens)
        drop = _dense_mi_entropy_drop(node)
        table = _dense_parsed_joint_table(node, ordered_cols)
        mi = mutual_information_dense(table)

        gap = abs(drop - mi)
        if gap > worst_drop[0]:
            worst_drop = (gap, node.history)

        over = -drop  # expected child entropy above the node entropy
        if over > worst_super[0]:
            worst_super = (over, node.history)

        excess = mi - state_capacity
        if excess > worst_cap[0]:
            worst_cap = (excess, node.history)

        assert node.emission is not None
        mi_erased = _dense_restricted_mi(table, [n_tokens])
        if mi_erased > worst_rel[0]:
            worst_rel = (mi_erased, node.history)
        mi_y = _dense_restricted_mi(table, ordered_cols)
        mi_z = _dense_restricted_mi(node.emission, ordered_cols)
        gap = abs(mi_y - mi_z)
        if gap > worst_rel[0]:
            worst_rel = (gap, node.history)

        support = {j for row in node.emission for j, p in enumerate(row) if p > 0.0}
        if len({system.targets[j] for j in support}) == 1:
            if next(iter(support)) not in ordered_cols and mi > worst_reph[0]:
                worst_reph = (mi, node.history)

        if node.entropy_bits > _EXACT_TOL:
            chain_sum += node.prob * mi
            budget_sum += node.prob * state_capacity

    identified_everywhere = all(leaf.entropy_bits <= _EXACT_TOL for leaf in tree.leaves())

    verdicts = [
        _dense_verdict("entropy_drop", *worst_drop),
        _dense_verdict("supermartingale", *worst_super),
        _dense_verdict("statewise_bound", *worst_cap),
        _dense_verdict("relativity", *worst_rel),
        _dense_verdict("rephrasing", *worst_reph),
    ]

    prior_entropy = entropy_bits(scenario.prior)
    if identified_everywhere:
        verdicts.append(
            _dense_verdict("chain_identity", abs(chain_sum - prior_entropy), None)
        )
        verdicts.append(
            _dense_verdict("trajectory_budget", prior_entropy - budget_sum, None)
        )
    else:
        verdicts.append(LawVerdict("chain_identity", "not applicable", 0.0, None))
        verdicts.append(LawVerdict("trajectory_budget", "not applicable", 0.0, None))

    verdicts.append(_dense_global_bound_verdict(tree, scenario))
    return AuditReport(tuple(verdicts))


def expected_completion_time_recursive(tree: HistoryTree, scenario: Scenario) -> Optional[float]:
    """Exact expected completion time, or None when some path never completes."""
    total = 0.0
    incomplete = False

    def walk(node: HistoryNode, alive: list[int]) -> None:
        nonlocal total, incomplete
        if incomplete:
            return
        still = []
        for i in alive:
            if node.joint[i] <= 0.0:
                continue
            done = (
                scenario.targets[i] in node.state
                and node.joint[i] >= node.prob * (1.0 - _EXACT_TOL)
            )
            if done:
                total += node.joint[i] * node.depth
            else:
                still.append(i)
        if not still:
            return
        if node.is_leaf:
            incomplete = True
            return
        for child in node.children.values():
            walk(child, still)

    walk(tree.root, list(range(len(scenario.targets))))
    return None if incomplete else total


def _dense_global_bound_verdict(tree: HistoryTree, scenario: Scenario) -> LawVerdict:
    expected_tau = expected_completion_time_recursive(tree, scenario)
    if expected_tau is None:
        return LawVerdict("global_bound", "not applicable", 0.0, None)
    chains = scenario.target_chains
    expected_depth = 0.0
    for target, weight in zip(scenario.targets, scenario.prior):
        if weight > 0.0:
            expected_depth += weight * (len(chains[target]) - 1)
    cap_max = capacity(scenario.mind, scenario.system, understanding_horizon(scenario.mind))
    floor = expected_depth
    if cap_max > 0.0:
        floor = max(floor, entropy_bits(scenario.prior) / cap_max)
    return _dense_verdict("global_bound", floor - expected_tau, None)


def derive(mind: Mind, state: Iterable[str], concept: str) -> Optional[DerivationTree]:
    space = mind.space
    base_mask = space.mask(state)
    target_bit = space.bit(concept)

    layers = [base_mask]
    while (nxt := mind.expand_mask(layers[-1])) != layers[-1]:
        layers.append(nxt)
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


def tree_size(tree: DerivationTree) -> int:
    return 1 + sum(tree_size(child) for child in tree.children)


# --- the closure by a per-call index, by full scans and by labels -----------


def closure_mask(mind: Mind, start: int) -> int:
    rules = mind._compiled.rules
    known = start
    missing: list[int] = []
    waiting: dict[int, list[int]] = defaultdict(list)
    stack: list[int] = []
    for ri, (prereq_mask, target_bit) in enumerate(rules):
        gap = prereq_mask & ~start
        missing.append(gap.bit_count())
        if gap == 0:
            if not target_bit & known:
                stack.append(target_bit)
        else:
            for bit in iter_bits(gap):
                waiting[bit].append(ri)
    while stack:
        bit = stack.pop()
        if bit & known:
            continue
        known |= bit
        for ri in waiting.get(bit, ()):
            missing[ri] -= 1
            if missing[ri] == 0:
                target_bit = rules[ri][1]
                if not target_bit & known:
                    stack.append(target_bit)
    return known


def closure_iterates(mind: Mind, state: Iterable[str]) -> list[frozenset[str]]:
    layers = [mind.space.mask(state)]
    while (nxt := mind.expand_mask(layers[-1])) != layers[-1]:
        layers.append(nxt)
    return [mind.space.labels(m) for m in layers]


def closure_within(mind: Mind, start: AbstractSet[str], within: AbstractSet[str]) -> frozenset[str]:
    known = set(start)
    grown = True
    while grown:
        grown = False
        for rule in mind.rules:
            if rule.target in within and rule.target not in known and rule.prereqs <= known:
                known.add(rule.target)
                grown = True
    return frozenset(known)


# --- the reachable family with its stored move table -------------------------


@dataclass(frozen=True, eq=False)
class FamilyWithMoves:
    """The reachable family as it was: its states and each state's moves."""

    space: ConceptSpace
    axioms: frozenset[str]
    horizon: frozenset[str]
    state_masks: frozenset[int]
    addable_masks: Mapping[int, int]

    def __len__(self) -> int:
        return len(self.state_masks)

    def addable(self, state: Iterable[str]) -> frozenset[str]:
        mask = self.space.mask(state)
        if mask not in self.state_masks:
            raise KeyError(f"state {sorted(state)} is not reachable")
        return self.space.labels(self.addable_masks[mask])


def enumerate_reachable(mind: Mind, *, cap: int = DEFAULT_STATE_CAP) -> FamilyWithMoves:
    start = mind.axiom_mask
    addable: dict[int, int] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        state = queue.popleft()
        moves = mind.expand_mask(state) & ~state
        addable[state] = moves
        for bit in iter_bits(moves):
            nxt = state | bit
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > cap:
                    raise CapExceededError(f"reachable family exceeds {cap} states")
                queue.append(nxt)
    if len(seen) > cap:  # the axiom state alone
        raise CapExceededError(f"reachable family exceeds {cap} states")
    return FamilyWithMoves(
        space=mind.space,
        axioms=mind.space.labels(start),
        horizon=mind.space.labels(mind.horizon_mask),
        state_masks=frozenset(seen),
        addable_masks=addable,
    )


# --- the recursive JSON writer ------------------------------------------------


def round_floats(value: Any) -> Any:
    """Round every float in a JSON-like structure to 12 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


def dump_json(value: Any) -> str:
    """Deterministic JSON text: fixed key order, rounded floats, trailing newline."""
    return json.dumps(round_floats(value), indent=2, sort_keys=False) + "\n"


# --- the general restricted mutual information ---------------------------------


def restricted_mi(table: list[list[tuple[int, float]]], keep: bytes) -> float:
    """Mutual information of a sparse joint table restricted to the columns ``j`` with ``keep[j]``, renormalized."""
    sub = [[(j, p) for j, p in row if keep[j]] for row in table]
    mass = sum([sum([p for _, p in row]) for row in sub])
    if mass <= 0.0:
        return 0.0
    return mutual_information_cells([[(j, p / mass) for j, p in row] for row in sub])


# --- the sort of the reachable family by label tuples --------------------------


def sorted_label_tuples(family: ReachableFamily) -> list[tuple[str, ...]]:
    """All states as tuples of sorted labels, sorted by size, then by the tuples."""
    concepts = family.space.concepts
    out = [
        tuple(sorted(tuple(concepts[bit.bit_length() - 1] for bit in iter_bits(m))))
        for m in family.state_masks
    ]
    out.sort(key=lambda t: (len(t), t))
    return out


# --- the parse test by one concept's rules, label by label ----------------------


def is_ordered(mind: Mind, state: Iterable[str], concept: str) -> bool:
    """``concept`` is known, or some rule targeting it has every prerequisite known."""
    state = frozenset(state)
    return concept in state or any(rule.target == concept and rule.prereqs <= state for rule in mind.rules)


def parse(mind: Mind, system: SignalSystem, token: str, state: Iterable[str]):
    """The token when its concept is ordered at ``state``, else None."""
    return token if is_ordered(mind, state, system.concept_of(token)) else None


def broadcast_check(instance: BroadcastInstance, sequence: Sequence[str]) -> tuple[bool, ...]:
    """Replay a shared token sequence, testing each token against each mind's rules."""
    states = [frozenset(mind.axioms) for mind in instance.minds]
    for token in sequence:
        concept = instance.system.concept_of(token)
        for i, mind in enumerate(instance.minds):
            if is_ordered(mind, states[i], concept):
                states[i] = states[i] | {concept}
    return tuple(instance.target in state for state in states)


# --- the loader through the general checks, validated after the fact -----------


def compiled(mind: Mind) -> _CompiledMind:
    """The rule masks and the by-prerequisite index, built once :func:`validate_mind` accepts the mind."""
    report = validate_mind(mind)
    if not report.accepted:
        raise InvalidMindError(f"mind rejected by validation: {report.summary()}")
    index = mind.space.index
    rules = []
    needing: list[list[int]] = [[] for _ in index]
    for ri, rule in enumerate(mind.rules):
        prereq_mask = 0
        for label in rule.prereqs:
            i = index[label]
            prereq_mask |= 1 << i
            needing[i].append(ri)
        rules.append((prereq_mask, 1 << index[rule.target]))
    return _CompiledMind(mind.space.mask(mind.axioms), tuple(rules), needing)


def concept_space(concepts: tuple) -> ConceptSpace:
    if not concepts:
        raise InvalidMindError("concept space must be non-empty")
    seen: set[str] = set()
    for label in concepts:
        _check_label(label, "concept label")
        if label in seen:
            raise InvalidMindError(f"duplicate concept label {label!r}")
        seen.add(label)
    return _frozen(ConceptSpace, concepts=concepts)


def signal_system(tokens: tuple, targets: tuple) -> SignalSystem:
    if not tokens:
        raise InvalidMindError("signal alphabet must be non-empty")
    if len(tokens) != len(targets):
        raise InvalidMindError("tokens and targets must have equal length")
    seen: set[str] = set()
    for tok in tokens:
        if not tok or any(map(str.isspace, tok)):
            raise InvalidMindError(f"bad signal token {tok!r}")
        if tok in seen:
            raise InvalidMindError(f"duplicate signal token {tok!r}")
        seen.add(tok)
    return _frozen(SignalSystem, tokens=tokens, targets=targets)


def mind_from_dict(data: Mapping[str, Any], where: str) -> Mind:
    concepts = _need_strings(data, "concepts", where)
    axioms = _need_strings(data, "axioms", where)
    raw_rules = _need(data, "rules", list, where)
    rules = []
    for i, entry in enumerate(raw_rules):
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: rules[{i}] must be an object")
        prereqs = _need_strings(entry, "prereqs", f"{where}: rules[{i}]")
        target = _need(entry, "target", str, f"{where}: rules[{i}]")
        rules.append(ExpansionRule(frozenset(prereqs), target))
    try:
        space = concept_space(tuple(concepts))
        mind = Mind(space=space, axioms=frozenset(axioms), rules=tuple(rules))
        mind.__dict__["_compiled"] = compiled(mind)
    except NoesisError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    return mind


def load_mind(path) -> Mind:
    return mind_from_dict(_read_json(path), str(path))


def _token_row(row: Any, alphabet: Mapping[str, str], where: str) -> tuple[str, ...]:
    if not isinstance(row, list):
        raise FormatError(f"{where} must be a token list")
    for j, tok in enumerate(row):
        if not isinstance(tok, str):
            raise FormatError(f"{where}[{j}] must be a token string, got {tok!r}")
        if tok not in alphabet:
            raise FormatError(f"{where}[{j}]: unknown signal token {tok!r}")
    return tuple(row)


def strategy_from_dict(data: Any, where: str, alphabet: Mapping[str, str]) -> StrategySpec:
    if not isinstance(data, dict):
        raise FormatError(f"{where}: field 'strategy' must be an object")
    kind = _need(data, "kind", str, where)
    if kind == "direct":
        return StrategySpec(kind="direct")
    if kind == "scripted":
        rows = _need(data, "rows", dict, f"{where}: strategy")
        fixed = {
            target: _token_row(row, alphabet, f"{where}: strategy.rows[{target!r}]")
            for target, row in rows.items()
        }
        return StrategySpec(kind="scripted", rows=fixed)
    if kind == "broadcast":
        row = _need(data, "row", list, f"{where}: strategy")
        return StrategySpec(kind="broadcast", row=_token_row(row, alphabet, f"{where}: strategy.row"))
    raise FormatError(f"{where}: unknown strategy kind {kind!r}")


def load_scenario_bundle(path) -> LoadedScenario:
    where = str(path)
    data = _read_json(path)
    mind = mind_from_dict(data, where)
    raw_signals = _need(data, "signals", list, where)
    pairs = []
    for i, entry in enumerate(raw_signals):
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: signals[{i}] must be an object")
        token = _need(entry, "token", str, f"{where}: signals[{i}]")
        if token == _NULL_TOKEN:
            raise FormatError(
                f"{where}: signals[{i}]: token {_NULL_TOKEN!r} is reserved for the null observation"
            )
        target = _need(entry, "target", str, f"{where}: signals[{i}]")
        if target not in mind.space:
            raise FormatError(f"{where}: signals[{i}]: unknown concept {target!r}")
        pairs.append((token, target))
    targets = _need_strings(data, "targets", where)
    raw_prior = _need(data, "prior", list, where)
    notes: list[str] = []
    weights = [_finite(w, "prior", where) for w in raw_prior]
    if any(w < 0 for w in weights):
        raise FormatError(f"{where}: field 'prior' has a negative weight")
    total = sum(weights)
    if not math.isfinite(total):
        raise FormatError(f"{where}: field 'prior' overflows when summed")
    if total <= 0:
        raise FormatError(f"{where}: field 'prior' must have positive total weight")
    if abs(total - 1.0) > 1e-12:
        notes.append(f"prior weights sum to {total:.12g}; normalized to 1")
    prior = tuple(w / total for w in weights)
    try:
        system = signal_system(tuple(tok for tok, _ in pairs), tuple(tgt for _, tgt in pairs))
        scenario = Scenario(mind=mind, system=system, targets=tuple(targets), prior=prior)
    except NoesisError as exc:
        raise FormatError(f"{where}: {exc}") from exc
    strategy = strategy_from_dict(data.get("strategy", {"kind": "direct"}), where, system.target_of)
    return LoadedScenario(scenario=scenario, strategy=strategy, notes=tuple(notes))


# --- the trace writers through dicts ---------------------------------------------


def _parsed_to_json(parsed: Optional[str]) -> str:
    if parsed == _NULL_TOKEN:
        raise FormatError(f"parsed token {_NULL_TOKEN!r} would read back as the null observation")
    return _NULL_TOKEN if parsed is None else parsed


def trace_to_dict(trace: EpisodeTrace, digest: str = "") -> dict[str, Any]:
    return {
        "seed": trace.seed,
        "horizon": trace.horizon,
        "scenario_digest": digest,
        "theta": trace.theta,
        "tau": trace.tau,
        "tau_id": trace.tau_id,
        "rounds": [
            {
                "t": r.t,
                "z": r.emitted,
                "y": _parsed_to_json(r.parsed),
                "state": sorted(r.state),
                "belief": list(r.belief),
                "entropy_bits": r.entropy_bits,
                "capacity_bits": r.capacity_bits,
            }
            for r in trace.rounds
        ],
    }


def dump_trace(trace: EpisodeTrace, digest: str = "") -> str:
    """One trace as ``simulate --episodes 1`` and ``write_trace`` wrote it."""
    return fileio_dump_json(trace_to_dict(trace, digest))


def dump_trace_list(traces: Iterable[EpisodeTrace], digest: str = "") -> str:
    """Several traces as ``simulate --episodes N`` wrote them."""
    return fileio_dump_json([trace_to_dict(t, digest) for t in traces])


def trace_to_csv(traces: Sequence[EpisodeTrace]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "theta", "t", "z", "y", "state", "belief", "entropy_bits", "capacity_bits"])
    for trace in traces:
        for r in trace.rounds:
            writer.writerow(
                [
                    trace.seed,
                    trace.theta,
                    r.t,
                    r.emitted,
                    _parsed_to_json(r.parsed),
                    "|".join(sorted(r.state)),
                    "|".join(f"{p:.12g}" for p in r.belief),
                    f"{r.entropy_bits:.12g}",
                    f"{r.capacity_bits:.12g}",
                ]
            )
    return buf.getvalue()


# --- the knowledge-state search as a generator over a queue ---------------------


def breadth_first(mind: Mind, parent: dict[int, int]):
    """Yield each reachable state after the axioms as it is found, moves in concept order.

    Fills ``parent`` with each found state's predecessor (-1 for the
    axioms); a caller may stop at any yield.  A popped state grows its
    expansion from its parent's (:meth:`Mind.expand_add`).
    """
    state = mind.axiom_mask
    parent[state] = -1
    expanded = mind.expand_mask(state)
    queue: deque[tuple[int, int, int]] = deque()
    while True:
        for bit in iter_bits(expanded & ~state):
            nxt = state | bit
            if nxt not in parent:
                parent[nxt] = state
                queue.append((state, expanded, bit))
                yield nxt
        if not queue:
            return
        state, expanded, bit = queue.popleft()
        expanded = mind.expand_add(expanded, state, bit)
        state |= bit


def first_hit_chains(mind: Mind, wanted: int) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """The first state holding each wanted bit, and the chain to it, by testing every found state."""
    start = mind.axiom_mask
    first = {bit: start for bit in iter_bits(wanted & start)}
    remaining = wanted & ~start
    parent: dict[int, int] = {}
    if remaining:
        for state in breadth_first(mind, parent):
            bit = state ^ parent[state]
            if bit & remaining:
                first[bit] = state
                remaining ^= bit
                if not remaining:
                    break
    chains = {}
    for bit, state in first.items():
        chain = [state]
        while chain[-1] != start:
            chain.append(parent[chain[-1]])
        chains[bit] = tuple(reversed(chain))
    return first, chains
