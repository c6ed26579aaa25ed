from __future__ import annotations

import math
import random

import pytest

import helpers
from noesis import (
    ExperimentMatrix,
    InvalidMindError,
    SignalSystem,
    UnknownConceptError,
    capacity,
    check_blackwell,
    direct_strategy,
    enumerate_reachable,
    experiment_matrix,
    garbling_map,
    max_capacity,
    ordered_signals,
    parse,
)


class TestSignalSystem:
    def test_rejects_bad_alphabets(self):
        with pytest.raises(InvalidMindError):
            SignalSystem((), ())
        with pytest.raises(InvalidMindError):
            SignalSystem(("z", "z"), ("a", "a"))
        with pytest.raises(InvalidMindError):
            SignalSystem(("z", ""), ("a", "b"))

    def test_empty_pairs_name_the_empty_alphabet(self):
        with pytest.raises(InvalidMindError, match="signal alphabet must be non-empty"):
            SignalSystem.from_pairs([])
        with pytest.raises(InvalidMindError, match="signal alphabet must be non-empty"):
            SignalSystem.from_pairs(iter(()))

    def test_fibers_follow_alphabet_order(self):
        system = SignalSystem.from_pairs([("u", "a"), ("v", "b"), ("w", "a")])
        assert system.fiber("a") == ("u", "w")
        assert system.fiber("c") == ()

    def test_unknown_token(self, star):
        with pytest.raises(UnknownConceptError):
            parse(star, helpers.star_system(), "z_zz", {"a"})


class TestParse:
    def test_star_fixture(self, star):
        system = helpers.star_system()
        assert parse(star, system, "z_1", {"a"}) is None
        assert parse(star, system, "z_b", {"a"}) == "z_b"
        # a token whose concept is already known always parses
        assert parse(star, system, "z_1", {"a", "d1"}) == "z_1"

    def test_unordered_collapse_everywhere(self):
        rng = random.Random(41)
        for _ in range(80):
            mind = helpers.random_mind(rng)
            system = helpers.random_system(rng, mind)
            state = helpers.random_state(rng, mind)
            expanded = mind.expand_mask(mind.space.mask(state))
            for token in system.tokens:
                concept = system.concept_of(token)
                parsed = parse(mind, system, token, state)
                if expanded & mind.space.bit(concept):
                    assert parsed == token
                else:
                    assert parsed is None


class TestCapacity:
    def test_star_values(self, star):
        system = helpers.star_system()
        assert ordered_signals(star, system, {"a"}) == {"z_b"}
        assert ordered_signals(star, system, {"a", "b"}) == set(system.tokens)
        assert capacity(star, system, {"a"}) == 1.0
        assert capacity(star, system, {"a", "b"}) == pytest.approx(math.log2(5), abs=1e-12)
        assert max_capacity(star, system) == pytest.approx(math.log2(5), abs=1e-12)

    def test_all_ordered_uses_alphabet_size(self):
        mind = helpers.make_mind("ab", "a", [("a", "b")])
        system = SignalSystem.from_pairs(
            [("u", "a"), ("v", "b"), ("w", "a"), ("x", "b")]
        )
        assert capacity(mind, system, {"a"}) == 2.0

    def test_empty_ordered_set_gives_zero_bits(self):
        mind = helpers.make_mind("ab", "a", [])
        system = SignalSystem.from_pairs([("v", "b")])
        assert capacity(mind, system, {"a"}) == 0.0
        assert max_capacity(mind, system) == 0.0

    def test_diamond_capacity_profile(self, diamond):
        # oracle: evaluate the formula at every reachable state directly
        system = SignalSystem.from_pairs([("z_b", "b"), ("z_c", "c"), ("z_d", "d")])
        family = enumerate_reachable(diamond)
        values = {}
        for state in family.states():
            n_ord = len(ordered_signals(diamond, system, state))
            expected = math.log2(n_ord + 1) if n_ord < 3 else math.log2(3)
            assert capacity(diamond, system, state) == pytest.approx(expected, abs=1e-12)
            values[frozenset(state)] = capacity(diamond, system, state)
        assert max_capacity(diamond, system) == pytest.approx(
            max(values.values()), abs=1e-12
        )
        assert max_capacity(diamond, system) == pytest.approx(
            math.log2(3), abs=1e-12
        )

    def test_monotone_over_nested_reachable_pairs(self):
        rng = random.Random(42)
        for _ in range(60):
            mind = helpers.random_mind(rng)
            system = helpers.random_system(rng, mind)
            family = enumerate_reachable(mind)
            caps = {
                m: capacity(mind, system, mind.space.labels(m))
                for m in family.state_masks
            }
            for small in family.state_masks:
                for big in family.state_masks:
                    if small & ~big == 0:
                        assert caps[small] <= caps[big] + 1e-12


class TestGarbling:
    def test_star_fixture_map(self, star):
        system = helpers.star_system()
        g = garbling_map(star, system, {"a"}, {"a", "b"})
        assert g["z_b"] == "z_b"
        assert all(g[f"z_{j}"] is None for j in (1, 2, 3, 4))
        assert g[None] is None

    def test_requires_nesting(self, star):
        with pytest.raises(ValueError):
            garbling_map(star, helpers.star_system(), {"a", "b"}, {"a"})

    def test_equal_states_give_identity_on_ordered_tokens(self, star):
        system = helpers.star_system()
        g = garbling_map(star, system, {"a", "b"}, {"a", "b"})
        assert all(g[tok] == tok for tok in system.tokens)

    def test_diamond_map(self, diamond):
        system = SignalSystem.from_pairs([("z_b", "b"), ("z_c", "c"), ("z_d", "d")])
        g = garbling_map(diamond, system, {"a"}, {"a", "b", "c"})
        assert g["z_b"] == "z_b" and g["z_c"] == "z_c" and g["z_d"] is None
        for token in system.tokens:
            assert parse(diamond, system, token, {"a"}) == g[
                parse(diamond, system, token, {"a", "b", "c"})
            ]

    def test_commuting_identity(self):
        rng = random.Random(43)
        for _ in range(60):
            mind = helpers.random_mind(rng)
            system = helpers.random_system(rng, mind)
            family = enumerate_reachable(mind)
            masks = sorted(family.state_masks)
            for small in masks:
                for big in masks:
                    if small & ~big:
                        continue
                    small_set = mind.space.labels(small)
                    big_set = mind.space.labels(big)
                    g = garbling_map(mind, system, small_set, big_set)
                    for token in system.tokens:
                        assert parse(mind, system, token, small_set) == g[
                            parse(mind, system, token, big_set)
                        ]


class TestExperimentsAndBlackwell:
    def test_rows_validate(self):
        with pytest.raises(ValueError):
            ExperimentMatrix(("t",), ("y", None), ((0.7, 0.2),))

    def test_identity_garbling(self, star_scenario):
        scenario = star_scenario
        strategy = direct_strategy(scenario)
        laws = {t: dict(strategy(t, ())) for t in scenario.targets}
        w = experiment_matrix(
            scenario.mind, scenario.system, {"a"}, laws, scenario.targets
        )
        identity = {y: y for y in w.outcomes}
        assert check_blackwell(w, w, identity)

    def test_star_round2_kernel(self, star_scenario):
        scenario = star_scenario
        strategy = direct_strategy(scenario)
        history = ("z_b",)
        laws = {t: dict(strategy(t, history)) for t in scenario.targets}
        w_small = experiment_matrix(
            scenario.mind, scenario.system, {"a"}, laws, scenario.targets
        )
        w_big = experiment_matrix(
            scenario.mind, scenario.system, {"a", "b"}, laws, scenario.targets
        )
        g = garbling_map(scenario.mind, scenario.system, {"a"}, {"a", "b"})
        assert check_blackwell(w_small, w_big, g)
        # the small-state experiment is pure erasure here
        for t in scenario.targets:
            assert w_small.prob(t, None) == 1.0

    def test_perturbed_entry_fails(self, star_scenario):
        scenario = star_scenario
        strategy = direct_strategy(scenario)
        laws = {t: dict(strategy(t, ("z_b",))) for t in scenario.targets}
        w_big = experiment_matrix(
            scenario.mind, scenario.system, {"a", "b"}, laws, scenario.targets
        )
        rows = [list(r) for r in w_big.rows]
        rows[0][0] += 0.1
        total = sum(rows[0])
        rows[0] = [p / total for p in rows[0]]
        w_bad = ExperimentMatrix(w_big.targets, w_big.outcomes, tuple(tuple(r) for r in rows))
        identity = {y: y for y in w_big.outcomes}
        assert not check_blackwell(w_bad, w_big, identity)

    def test_target_index_mismatch(self, star_scenario):
        scenario = star_scenario
        strategy = direct_strategy(scenario)
        laws = {t: dict(strategy(t, ())) for t in scenario.targets}
        w = experiment_matrix(scenario.mind, scenario.system, {"a"}, laws, scenario.targets)
        w_other = ExperimentMatrix(("x",), w.outcomes, (w.rows[0],))
        with pytest.raises(ValueError):
            check_blackwell(w, w_other, {y: y for y in w.outcomes})
