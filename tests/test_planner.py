from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest

import helpers
from noesis import (
    CapExceededError,
    MissingSignalError,
    Scenario,
    SignalSystem,
    UnreachableConceptError,
    allocate,
    broadcast_check,
    broadcast_construct,
    broadcast_min_length,
    deterministic_value,
    exact_value_tiny,
    shortest_chain,
    structural_distance,
    validate_curriculum,
    value_envelope,
    value_lower,
    value_upper,
)
from noesis.derivation import Curriculum


class TestValueBounds:
    def test_star_upper(self, star_scenario):
        assert value_upper(star_scenario, 0) == 0.0
        assert value_upper(star_scenario, 1) == 0.0
        assert value_upper(star_scenario, 2) == pytest.approx(1.0, abs=1e-12)

    def test_upper_is_float_with_no_target_in_reach(self, star_scenario):
        assert type(value_upper(star_scenario, 0)) is float

    def test_star_lower(self, star_scenario):
        assert value_lower(star_scenario, 1) == 0.0
        assert value_lower(star_scenario, 3) == pytest.approx(1.0, abs=1e-12)
        # the tail bound alone guarantees at least 1 - 3/30
        assert value_lower(star_scenario, 30) >= 0.9

    def test_axiom_point_prior(self):
        mind = helpers.make_mind("ab", "a", [("a", "b")])
        system = SignalSystem.from_pairs([("z_a", "a"), ("z_b", "b")])
        scenario = Scenario(mind=mind, system=system, targets=("a",), prior=(1.0,))
        assert value_upper(scenario, 0) == 1.0

    def test_envelope_contains_exact(self):
        rng = random.Random(71)
        for _ in range(30):
            scenario = helpers.random_tiny_scenario(rng)
            for t in range(1, 4):
                env = value_envelope(scenario, t, exact=True)
                assert env.lower <= env.exact + 1e-12
                assert env.exact <= env.upper + 1e-12


class TestDeterministicValue:
    def test_mind1_step(self, mind1):
        system = helpers.arithmetic_system()
        assert deterministic_value(mind1, system, "d", 2) == 0
        assert deterministic_value(mind1, system, "d", 3) == 1

    def test_axiom_target(self, mind1):
        system = helpers.arithmetic_system()
        assert deterministic_value(mind1, system, "a", 0) == 1

    def test_star_step(self, star):
        system = helpers.star_system()
        assert deterministic_value(star, system, "d1", 1) == 0
        assert deterministic_value(star, system, "d1", 2) == 1

    def test_unreachable_target(self):
        mind = helpers.make_mind("abe", "a", [("a", "b")])
        system = SignalSystem.from_pairs([("z_b", "b")])
        with pytest.raises(UnreachableConceptError):
            deterministic_value(mind, system, "e", 5)

    def test_missing_chain_token(self, mind1):
        system = SignalSystem.from_pairs([("z_b", "b"), ("z_d", "d")])
        with pytest.raises(MissingSignalError, match="'c'"):
            deterministic_value(mind1, system, "d", 3)


class TestExactValueTiny:
    def test_degenerate_prior_reproduces_step(self):
        rng = random.Random(72)
        done = 0
        while done < 25:
            mind = helpers.random_mind(rng, max_concepts=5, nonempty_axioms=True)
            goals = [
                c
                for c in mind.space.concepts
                if structural_distance(mind, c) is not None
                and 1 <= structural_distance(mind, c) <= 3
            ]
            if not goals:
                continue
            goal = rng.choice(goals)
            chain = shortest_chain(mind, goal)
            added = sorted({next(iter(b - a)) for a, b in zip(chain, chain[1:])})
            system = SignalSystem.from_pairs([(f"z_{c}", c) for c in added])
            scenario = Scenario(mind=mind, system=system, targets=(goal,), prior=(1.0,))
            depth = structural_distance(mind, goal)
            for t in range(0, 4):
                expected = deterministic_value(mind, system, goal, t)
                assert exact_value_tiny(scenario, t) == pytest.approx(
                    float(expected), abs=1e-12
                )
                assert expected == (0 if t < depth else 1)
            done += 1

    def test_star_two_targets(self, star):
        system = SignalSystem.from_pairs([("z_b", "b"), ("z_1", "d1"), ("z_2", "d2")])
        scenario = Scenario(
            mind=star, system=system, targets=("d1", "d2"), prior=(0.5, 0.5)
        )
        assert exact_value_tiny(scenario, 1) == 0.0
        assert exact_value_tiny(scenario, 2) == pytest.approx(1.0, abs=1e-12)

    def test_zero_horizon(self, star):
        system = SignalSystem.from_pairs([("z_b", "b"), ("z_1", "d1")])
        scenario = Scenario(mind=star, system=system, targets=("d1",), prior=(1.0,))
        assert exact_value_tiny(scenario, 0) == 0.0
        mind = helpers.make_mind("ab", "a", [("a", "b")])
        axiom_scenario = Scenario(
            mind=mind,
            system=SignalSystem.from_pairs([("z_a", "a")]),
            targets=("a",),
            prior=(1.0,),
        )
        assert exact_value_tiny(axiom_scenario, 0) == 1.0

    def test_caps(self, star_scenario):
        # Each message names the cap and what the input had.
        with pytest.raises(CapExceededError) as exc:
            exact_value_tiny(star_scenario, 2)  # four targets and five tokens
        assert str(exc.value) == "exact search caps targets at 3; the scenario has 4"
        small = helpers.star()
        system = SignalSystem.from_pairs([("z_b", "b"), ("z_1", "d1")])
        scenario = Scenario(mind=small, system=system, targets=("d1",), prior=(1.0,))
        with pytest.raises(CapExceededError) as exc:
            exact_value_tiny(scenario, 4)
        assert str(exc.value) == "exact search caps the horizon at 3; asked for 4"
        wide = dataclasses.replace(scenario, system=star_scenario.system)
        with pytest.raises(CapExceededError) as exc:
            exact_value_tiny(wide, 1)
        assert str(exc.value) == "exact search caps the alphabet at 3; the scenario has 5"


class TestAllocate:
    def test_reference_numbers(self):
        plan = allocate(4, 5, 2)
        assert plan.completed == 2
        assert plan.rounds == (2, 2, 0, 0)
        assert plan.even_split_rounds == pytest.approx(1.25)
        assert plan.even_split_completed == 0

    def test_zero_budget(self):
        assert allocate(3, 0, 2).completed == 0

    def test_saturated_budget(self):
        plan = allocate(3, 10, 2)
        assert plan.completed == 3
        assert plan.even_split_completed == 3

    def test_even_split_zero_below_threshold(self):
        for learners in (2, 3, 5):
            for depth in (2, 3):
                for budget in range(0, learners * depth):
                    plan = allocate(learners, budget, depth)
                    assert plan.even_split_completed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate(0, 5, 2)
        with pytest.raises(ValueError):
            allocate(2, -1, 2)
        with pytest.raises(ValueError):
            allocate(2, 5, 0)

    @pytest.mark.parametrize("learners", [1_000_001, 10**400])
    def test_learner_cap_refuses_before_building_the_plan(self, learners):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError) as exc:
                allocate(learners, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"allocation caps learners at 1000000; asked for {learners}"
        assert peak < 100_000  # a plan of a million learners would take megabytes

    def test_learner_cap_admits_the_cap(self):
        plan = allocate(1_000_000, 3, 1)
        assert plan.completed == 3 and len(plan.rounds) == 1_000_000


class TestBroadcast:
    def test_construction_invariants(self):
        for k in (2, 3):
            for depth in (2, 3):
                instance = broadcast_construct(k, depth)
                assert len(instance.minds) == k
                assert len(instance.tight_sequence) == k * (depth - 1) + 1
                rule_sets = [frozenset(m.effective_rules) for m in instance.minds]
                assert len(set(rule_sets)) == k  # pairwise distinct
                for mind in instance.minds:
                    assert mind.axioms == instance.axioms
                    assert structural_distance(mind, instance.target) == depth

    def test_personalized_curricula_have_length_depth(self):
        instance = broadcast_construct(3, 3)
        for mind in instance.minds:
            chain = shortest_chain(mind, instance.target)
            # the private chain is itself a valid curriculum of that length
            rules = [
                next(
                    r for r in mind.effective_rules if r.target == next(iter(b - a))
                )
                for a, b in zip(chain, chain[1:])
            ]
            assert len(rules) == instance.depth
            assert validate_curriculum(mind, instance.axioms, Curriculum(tuple(rules)))

    def test_tight_sequence_succeeds_and_truncations_fail(self):
        for k in (2, 3):
            for depth in (2, 3):
                instance = broadcast_construct(k, depth)
                assert all(broadcast_check(instance, instance.tight_sequence))
                truncated = instance.tight_sequence[:-1]
                assert not all(broadcast_check(instance, truncated))
                assert broadcast_check(instance, ()) == (False,) * k
                # Naming the target before any chain is walked teaches it to nobody.
                early = instance.tight_sequence[-1:] + truncated
                assert broadcast_check(instance, early) == (False,) * k

    def test_min_length_matches_formula(self):
        assert broadcast_min_length(broadcast_construct(2, 2)) == 3
        assert broadcast_min_length(broadcast_construct(3, 2)) == 4
        assert broadcast_min_length(broadcast_construct(2, 3)) == 5

    def test_min_length_cap(self):
        instance = broadcast_construct(3, 3)
        with pytest.raises(CapExceededError):
            broadcast_min_length(instance, cap=2)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            broadcast_construct(1, 2)
        with pytest.raises(ValueError):
            broadcast_construct(2, 1)
