"""Shared builders and random generators for the test suite."""

from __future__ import annotations

import dataclasses
import random
from typing import Iterable, Optional, Sequence

from noesis import (
    ConceptSpace,
    ExpansionRule,
    Mind,
    Scenario,
    SignalSystem,
    understanding_horizon,
)


def make_mind(
    concepts: Sequence[str],
    axioms: Iterable[str],
    rules: Sequence[tuple[Iterable[str], str]],
) -> Mind:
    return Mind(
        space=ConceptSpace(tuple(concepts)),
        axioms=frozenset(axioms),
        rules=tuple(ExpansionRule(frozenset(p), t) for p, t in rules),
    )


def mind1() -> Mind:
    return make_mind("abcd", "a", [("a", "b"), ("b", "c"), ("bc", "d")])


def mind2() -> Mind:
    return make_mind("abcd", "a", [("a", "c"), ("c", "b"), ("bc", "d")])


def diamond() -> Mind:
    return make_mind("abcd", "a", [("a", "b"), ("a", "c"), ("bc", "d")])


def star() -> Mind:
    return make_mind(
        ("a", "b", "d1", "d2", "d3", "d4"),
        "a",
        [("a", "b")] + [("b", f"d{j}") for j in (1, 2, 3, 4)],
    )


def star_system() -> SignalSystem:
    return SignalSystem.from_pairs(
        [("z_b", "b")] + [(f"z_{j}", f"d{j}") for j in (1, 2, 3, 4)]
    )


def star_scenario() -> Scenario:
    return Scenario(
        mind=star(),
        system=star_system(),
        targets=("d1", "d2", "d3", "d4"),
        prior=(0.25, 0.25, 0.25, 0.25),
    )


def arithmetic_system() -> SignalSystem:
    return SignalSystem.from_pairs([("z_b", "b"), ("z_c", "c"), ("z_d", "d")])


def arithmetic_scenario() -> Scenario:
    third = 1.0 / 3.0
    return Scenario(
        mind=mind1(),
        system=arithmetic_system(),
        targets=("b", "c", "d"),
        prior=(third, third, third),
    )


def arithmetic_script() -> dict[str, tuple[str, ...]]:
    return {
        "b": ("z_b", "z_b", "z_b"),
        "c": ("z_b", "z_c", "z_c"),
        "d": ("z_b", "z_c", "z_d"),
    }


def random_mind(
    rng: random.Random,
    max_concepts: int = 6,
    max_rules: int = 10,
    nonempty_axioms: bool = False,
    space: Optional[ConceptSpace] = None,
) -> Mind:
    """A random mind biased toward real prerequisite structure.

    A scaffold pass wires most non-axiom concepts to prerequisites that
    are already derivable, producing deep chains and branching families;
    a second pass sprinkles unconstrained rules (including empty-premise
    and dead-end ones) so degenerate shapes stay represented.  The mind
    lives on ``space`` when one is given, else on a fresh space of at
    most ``max_concepts`` concepts.
    """
    if space is None:
        n = rng.randint(1, max_concepts)
        space = ConceptSpace(tuple(f"c{i}" for i in range(n)))
    labels = list(space.concepts)
    n = len(labels)
    order = labels[:]
    rng.shuffle(order)
    low = 1 if nonempty_axioms else 0
    ax_size = rng.randint(low, max(low, min(n, 2)))
    axioms = order[:ax_size]
    rules: set[ExpansionRule] = set()
    pool = list(axioms)
    for concept in order[ax_size:]:
        if pool and len(rules) < max_rules and rng.random() < 0.8:
            prereqs = rng.sample(pool, rng.randint(1, min(2, len(pool))))
            rules.add(ExpansionRule(frozenset(prereqs), concept))
            pool.append(concept)
    for _ in range(rng.randint(0, max(0, max_rules - len(rules)))):
        target = rng.choice(labels)
        rest = [l for l in labels if l != target]
        prereqs = rng.sample(rest, rng.randint(0, min(3, len(rest))))
        rules.add(ExpansionRule(frozenset(prereqs), target))
    return Mind(
        space=space,
        axioms=frozenset(axioms),
        rules=tuple(sorted(rules, key=lambda r: (sorted(r.prereqs), r.target))),
    )


def layered_mind(rng: random.Random, width: int = 4, depth: int = 3) -> Mind:
    """Layers of 2 to ``width`` concepts, each gated by the layer below.

    Layer 0 holds one or two axioms.  A concept of layer ``k`` gets a rule
    with one or two prerequisites from layer ``k - 1`` and, one time in
    four, an alternative rule, so the family mixes conjunctive and
    disjunctive gates.  A concept of the top layer may be left without a
    rule, outside the horizon.
    """
    layers = [[f"L0_{j}" for j in range(rng.randint(1, 2))]]
    for k in range(1, depth + 1):
        layers.append([f"L{k}_{j}" for j in range(rng.randint(2, width))])
    rules: dict[ExpansionRule, None] = {}
    for below, layer in zip(layers, layers[1:]):
        for concept in layer:
            if layer is layers[-1] and rng.random() < 0.2:
                continue
            for _ in range(1 + (rng.random() < 0.25)):
                prereqs = rng.sample(below, rng.randint(1, min(2, len(below))))
                rules[ExpansionRule(frozenset(prereqs), concept)] = None
    space = ConceptSpace(tuple(c for layer in layers for c in layer))
    return Mind(space=space, axioms=frozenset(layers[0]), rules=tuple(rules))


def random_state(rng: random.Random, mind: Mind) -> frozenset[str]:
    return frozenset(
        c for c in mind.space.concepts if rng.random() < 0.5
    )


def random_system(
    rng: random.Random, mind: Mind, max_tokens: int = 6
) -> SignalSystem:
    """Tokens covering every non-axiom horizon concept, plus random extras."""
    horizon = understanding_horizon(mind)
    needed = sorted(horizon - mind.axioms)
    pairs = [(f"t{i}_{c}", c) for i, c in enumerate(needed)]
    while len(pairs) < max_tokens and rng.random() < 0.6:
        c = rng.choice(mind.space.concepts)
        pairs.append((f"t{len(pairs)}_{c}", c))
    if not pairs:  # a mind may understand nothing beyond its axioms
        c = rng.choice(mind.space.concepts)
        pairs.append((f"t0_{c}", c))
    return SignalSystem.from_pairs(pairs)


def random_scenario(
    rng: random.Random,
    max_concepts: int = 6,
    max_tokens: int = 6,
    max_targets: int = 4,
) -> Scenario:
    """A valid random scenario whose horizon concepts all carry tokens."""
    while True:
        mind = random_mind(rng, max_concepts=max_concepts, nonempty_axioms=True)
        horizon = understanding_horizon(mind)
        if horizon:
            break
    pool = sorted(horizon)
    targets = tuple(sorted(rng.sample(pool, rng.randint(1, min(max_targets, len(pool))))))
    needed = sorted((horizon - mind.axioms) | set(targets))
    pairs = [(f"t{i}_{c}", c) for i, c in enumerate(needed)]
    while len(pairs) < max_tokens and rng.random() < 0.5:
        c = rng.choice(mind.space.concepts)
        pairs.append((f"t{len(pairs)}_{c}", c))
    weights = [rng.randint(1, 5) for _ in targets]
    total = sum(weights)
    return Scenario(
        mind=mind,
        system=SignalSystem.from_pairs(pairs),
        targets=targets,
        prior=tuple(w / total for w in weights),
    )


def rephrased(rng: random.Random, scenario: Scenario) -> Scenario:
    """The scenario with up to two more tokens for every concept, axioms included, in shuffled order."""
    pairs = list(zip(scenario.system.tokens, scenario.system.targets))
    for c in scenario.mind.space.concepts:
        for _ in range(rng.randint(0, 2)):
            pairs.append((f"r{len(pairs)}_{c}", c))
    rng.shuffle(pairs)
    return dataclasses.replace(scenario, system=SignalSystem.from_pairs(pairs))


def some_zero_prior(rng: random.Random, scenario: Scenario) -> Scenario:
    """Zero the prior of some targets (never all) about half the time."""
    if len(scenario.targets) < 2 or rng.random() < 0.5:
        return scenario
    weights = [p if rng.random() < 0.6 else 0.0 for p in scenario.prior]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1.0
    total = sum(weights)
    return dataclasses.replace(scenario, prior=tuple(w / total for w in weights))


def random_tiny_scenario(rng: random.Random) -> Scenario:
    """A scenario small enough for the exhaustive strategy search."""
    while True:
        mind = random_mind(rng, max_concepts=4, nonempty_axioms=True)
        horizon = understanding_horizon(mind)
        if horizon:
            break
    pool = sorted(horizon)
    targets = tuple(sorted(rng.sample(pool, rng.randint(1, min(3, len(pool))))))
    pairs = [(f"z_{c}", c) for c in targets]
    if len(pairs) < 3 and rng.random() < 0.5:
        c = rng.choice(mind.space.concepts)
        pairs.append((f"x_{c}", c))
    weights = [rng.randint(1, 4) for _ in targets]
    total = sum(weights)
    return Scenario(
        mind=mind,
        system=SignalSystem.from_pairs(pairs),
        targets=targets,
        prior=tuple(w / total for w in weights),
    )


def random_script(
    rng: random.Random, scenario: Scenario, horizon: int
) -> dict[str, tuple[str, ...]]:
    return {
        target: tuple(rng.choice(scenario.system.tokens) for _ in range(horizon))
        for target in scenario.targets
    }


def random_row(rng: random.Random, scenario: Scenario, horizon: int) -> tuple[str, ...]:
    return tuple(rng.choice(scenario.system.tokens) for _ in range(horizon))


def random_kernel(seed: int, scenario: Scenario):
    """A randomized, history-dependent strategy kernel.

    The law depends on the target, the round and the last parsed
    observation, and is drawn from a generator seeded by exactly those,
    so it does not depend on the order in which the kernel is asked.
    Some tokens carry probability 0, which must never become an outcome.
    """
    tokens = scenario.system.tokens
    memo: dict[tuple, dict[str, float]] = {}

    def kernel(target: str, history: tuple) -> dict[str, float]:
        key = (target, len(history), history[-1] if history else "")
        if key not in memo:
            rng = random.Random(f"{seed}:{key}")
            support = rng.sample(tokens, rng.randint(1, min(3, len(tokens))))
            weights = [rng.randint(0, 3) for _ in support]
            weights[0] += 1
            total = sum(weights)
            memo[key] = {tok: w / total for tok, w in zip(support, weights)}
        return memo[key]

    return kernel
