"""Slow reference implementations, kept only for tests.

The first part is the per-token teaching round that
:meth:`Scenario.step` replaced: every emitted token is parsed against
the frozenset state with :func:`parse`, grouped by parsed outcome by
hand, and the state is advanced with :func:`knowledge_update`.  They are
slow and written out once per caller on purpose; the differential tests
compare the mask-level step against them.

The second part is the frozenset learning-space check (pairwise unions,
twice) and the per-state capacity scan that the mask-level local check
and the horizon-state capacity replaced.
"""

from __future__ import annotations

import itertools
import random
from typing import AbstractSet, Optional

from noesis import (
    HistoryNode,
    HistoryTree,
    Mind,
    ZeroProbabilityError,
    capacity,
    entropy_bits,
    knowledge_update,
    parse,
)
from noesis.reachability import FamilyLike, LearningSpaceReport, ReachableFamily
from noesis.signals import SignalSystem, capacity_from_count
from noesis.teaching import POINT_MASS_TOL, EpisodeTrace, Round, emission_distribution


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
