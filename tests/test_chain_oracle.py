"""Differential tests: shared shortest chains and parsing against the oracle.

The oracle runs one BFS per target per call and parses by scanning the
rules label by label; the package runs one BFS per scenario and parses
through the state's expansion.  Counting expansions, in full
(``Mind.expand_mask``) or grown from a parent's (``Mind.expand_add``),
guards against a search that runs further than the oracle's.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    Mind,
    MissingSignalError,
    Scenario,
    SignalSystem,
    UnreachableConceptError,
    deterministic_value,
    direct_strategy,
    is_ordered,
    parse,
    shortest_chain,
    structural_distance,
    value_envelope,
    value_lower,
    value_upper,
)
from noesis.mind import iter_bits


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type of the package error it raises."""
    try:
        return fn(*args)
    except (MissingSignalError, UnreachableConceptError) as exc:
        return type(exc)


def _drop_some_tokens(rng: random.Random, scenario: Scenario) -> Scenario:
    """Sometimes drop every token of one non-target concept, so a chain may go untaught."""
    spare = sorted(set(scenario.system.targets) - set(scenario.targets))
    if not spare or rng.random() < 0.6:
        return scenario
    gone = rng.choice(spare)
    pairs = [(t, c) for t, c in zip(scenario.system.tokens, scenario.system.targets) if c != gone]
    return dataclasses.replace(scenario, system=SignalSystem.from_pairs(pairs))


def _scenario_case(rng: random.Random) -> Scenario:
    scenario = helpers.random_scenario(rng, max_concepts=7, max_tokens=8)
    if len(scenario.targets) > 1 and rng.random() < 0.4:
        weights = [p if rng.random() < 0.6 else 0.0 for p in scenario.prior]
        if any(weights):
            total = sum(weights)
            scenario = dataclasses.replace(scenario, prior=tuple(w / total for w in weights))
    return _drop_some_tokens(rng, scenario)


class TestChainsMatchOracle:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_distance_and_chain_of_every_concept(self, rng):
        mind = helpers.random_mind(rng, max_concepts=7)
        for concept in mind.space.concepts:  # axioms and unreachable concepts included
            assert structural_distance(mind, concept) == oracle.structural_distance(mind, concept)
            assert _outcome(shortest_chain, mind, concept) == _outcome(
                oracle.shortest_chain, mind, concept
            )

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_scenario_target_chains(self, rng):
        scenario = _scenario_case(rng)
        labels = scenario.mind.space.labels
        assert list(scenario.target_chains) == list(scenario.targets)
        for target, chain in scenario.target_chains.items():
            assert tuple(labels(m) for m in chain) == oracle.shortest_chain(scenario.mind, target)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_direct_kernels(self, rng):
        scenario = _scenario_case(rng)
        got = _outcome(direct_strategy, scenario)
        want = _outcome(oracle.direct_strategy, scenario)
        if isinstance(want, type):
            assert got is want
            return
        for target in scenario.targets:
            plan_length = oracle.structural_distance(scenario.mind, target) + 1
            for k in range(plan_length + 2):
                history = tuple(rng.choice((None, *scenario.system.tokens)) for _ in range(k))
                assert got(target, history) == want(target, history)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_value_bounds_at_every_horizon(self, rng):
        scenario = _scenario_case(rng)
        deepest = max(oracle.structural_distance(scenario.mind, t) for t in scenario.targets)
        for t in range(deepest + 3):
            assert value_upper(scenario, t) == oracle.value_upper(scenario, t)
            if t >= 1:
                assert value_lower(scenario, t) == oracle.value_lower(scenario, t)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_deterministic_value(self, rng):
        mind = helpers.random_mind(rng, max_concepts=7)
        system = helpers.random_system(rng, mind)
        if rng.random() < 0.4 and len(system.tokens) > 1:
            keep = rng.sample(range(len(system.tokens)), len(system.tokens) - 1)
            system = SignalSystem.from_pairs(
                (system.tokens[i], system.targets[i]) for i in sorted(keep)
            )
        for goal in mind.space.concepts:
            for t in range(len(mind.space) + 1):
                assert _outcome(deterministic_value, mind, system, goal, t) == _outcome(
                    oracle.deterministic_value, mind, system, goal, t
                )


class TestRuleLocalParsing:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_ordered_test_matches_full_expansion(self, rng):
        # The expansion-based tests against a scan of ``mind.rules``, label by label.
        mind = helpers.random_mind(rng, max_concepts=7)
        system = helpers.random_system(rng, mind, max_tokens=9)
        for _ in range(4):
            state = helpers.random_state(rng, mind)
            for concept in mind.space.concepts:
                assert is_ordered(mind, state, concept) == oracle.is_ordered(mind, state, concept)
            for token in system.tokens:
                assert parse(mind, system, token, state) == oracle.parse(mind, system, token, state)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_incremental_expansion_matches_full_expansion(self, rng):
        mind = helpers.random_mind(rng, max_concepts=7)
        for _ in range(4):
            mask = mind.space.mask(helpers.random_state(rng, mind))
            expanded = mind.expand_mask(mask)
            for bit in iter_bits(mind.space.full_mask):  # known, ordered and unordered bits
                assert mind.expand_add(expanded, mask, bit) == mind.expand_mask(mask | bit)


def _antichain_with_branch(width: int, depth: int) -> Mind:
    """One axiom unlocking ``width`` independent concepts and a ``depth``-long chain."""
    wide = [f"w{i}" for i in range(width)]
    deep = [f"d{i}" for i in range(1, depth + 1)]
    rules = [(("a",), w) for w in wide] + [((p,), c) for p, c in zip(["a"] + deep, deep)]
    return helpers.make_mind(["a", *wide, *deep], "a", rules)


def _chain_scenario(length: int, n_targets: int) -> Scenario:
    labels = [f"c{i}" for i in range(length)]
    mind = helpers.make_mind(labels, labels[:1], [((p,), c) for p, c in zip(labels, labels[1:])])
    system = SignalSystem.from_pairs((f"z_{c}", c) for c in labels[1:])
    targets = tuple(labels[length - 1 - 5 * k] for k in range(n_targets))
    return Scenario(mind=mind, system=system, targets=targets, prior=(1 / n_targets,) * n_targets)


class _Counter:
    """Counts expansions, in full (``expand_mask``) or grown from a parent's (``expand_add``)."""

    def __init__(self, monkeypatch):
        self.full = self.grown = 0
        original_full, original_add = Mind.expand_mask, Mind.expand_add

        def counted_full(mind, mask):
            self.full += 1
            return original_full(mind, mask)

        def counted_add(mind, expanded, mask, bit):
            self.grown += 1
            return original_add(mind, expanded, mask, bit)

        monkeypatch.setattr(Mind, "expand_mask", counted_full)
        monkeypatch.setattr(Mind, "expand_add", counted_add)

    def during(self, fn, *args) -> int:
        before = self.full + self.grown
        fn(*args)
        return self.full + self.grown - before


class TestNoExtraBfsWork:
    @pytest.mark.parametrize("concept", ["w0", "w13", "d1", "d5"])
    def test_one_distance_query_searches_no_further_than_the_oracle(self, monkeypatch, concept):
        mind = _antichain_with_branch(14, 5)
        counter = _Counter(monkeypatch)
        got = counter.during(structural_distance, mind, concept)
        want = counter.during(oracle.structural_distance, mind, concept)
        assert 1 <= got <= want

    def test_direct_strategy_and_envelope_share_one_search(self, monkeypatch):
        scenario = _chain_scenario(200, 8)
        counter = _Counter(monkeypatch)
        calls = counter.during(direct_strategy, scenario)
        for t in (1, 100, 199, 200):
            calls += counter.during(value_envelope, scenario, t)
        assert calls <= 201

    def test_a_chain_search_expands_only_the_axioms_in_full(self, monkeypatch):
        labels = [f"c{i}" for i in range(3000)]
        mind = helpers.make_mind(labels, labels[:1], [((p,), c) for p, c in zip(labels, labels[1:])])
        counter = _Counter(monkeypatch)
        assert structural_distance(mind, labels[-1]) == 2999
        # The axioms and the 2,998 states before the last one are popped.
        assert counter.full == 1
        assert counter.grown <= 2998
