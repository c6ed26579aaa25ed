"""End-to-end acceptance checks.

Each test covers one numbered criterion, runs it at its stated tolerance
and time budget, and prints a pass line (visible with ``pytest -s``).
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

import pytest

import helpers
from noesis import (
    Mind,
    Scenario,
    SignalSystem,
    allocate,
    audit_all,
    broadcast_check,
    broadcast_construct,
    broadcast_min_length,
    broadcast_strategy,
    build_history_tree,
    canonical_rules,
    capacity,
    check_blackwell,
    check_learning_space,
    closure,
    closure_iterates,
    curriculum_from_derivation,
    derive,
    deterministic_value,
    direct_strategy,
    enumerate_reachable,
    entropy_bits,
    exact_value_tiny,
    experiment_matrix,
    garbling_map,
    max_capacity,
    one_step_expansion,
    posterior_after,
    run_episode,
    scripted_strategy,
    shortest_chain,
    structural_distance,
    validate_curriculum,
)


def _stamp(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS  {text}")


def test_criterion_01_closure_fixture(mind1):
    closure(mind1, {"a"})  # warm the compiled rule table
    start = time.perf_counter()
    iterates = closure_iterates(mind1, {"a"})
    closed = closure(mind1, {"a"})
    elapsed = time.perf_counter() - start
    assert closed == {"a", "b", "c", "d"}
    assert iterates == [{"a"}, {"a", "b"}, {"a", "b", "c"}, {"a", "b", "c", "d"}]
    assert elapsed < 0.001
    _stamp(1, f"closure fixture with exact iteration sequence ({elapsed * 1e6:.0f} us)")


def test_criterion_02_reachable_family_fixture(diamond):
    enumerate_reachable(diamond)  # warm the compiled rule table
    start = time.perf_counter()
    family = enumerate_reachable(diamond)
    report = check_learning_space(family, {"a"})
    elapsed = time.perf_counter() - start
    assert set(family.states()) == {
        frozenset({"a"}),
        frozenset({"a", "b"}),
        frozenset({"a", "c"}),
        frozenset({"a", "b", "c"}),
        frozenset({"a", "b", "c", "d"}),
    }
    assert report.passed and report.shifted_antimatroid
    negative = check_learning_space([frozenset(), frozenset({"a", "b"})], frozenset())
    assert negative.union_closed and not negative.accessible
    assert elapsed < 0.001
    _stamp(2, f"reachable family and accessibility fixtures ({elapsed * 1e6:.0f} us)")


def test_criterion_03_representation_round_trip():
    rng = random.Random(103)
    start = time.perf_counter()
    for _ in range(500):
        mind = helpers.random_mind(rng, max_concepts=6, max_rules=10)
        family = enumerate_reachable(mind)
        rules = canonical_rules(family, mind.space, mind.axioms)
        rebuilt = Mind(space=mind.space, axioms=mind.axioms, rules=rules)
        assert set(enumerate_reachable(rebuilt).states()) == set(family.states())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _stamp(3, f"representation round-trip on 500 random minds ({elapsed:.2f} s)")


def test_criterion_04_closure_axiom_suite():
    rng = random.Random(104)
    start = time.perf_counter()
    for _ in range(500):
        mind = helpers.random_mind(rng, max_concepts=6, max_rules=10)
        small = helpers.random_state(rng, mind)
        big = small | helpers.random_state(rng, mind)
        # extensiveness and idempotence
        assert small <= one_step_expansion(mind, small)
        closed = closure(mind, small)
        assert small <= closed and closure(mind, closed) == closed
        # monotonicity
        assert one_step_expansion(mind, small) <= one_step_expansion(mind, big)
        assert closed <= closure(mind, big)
        # termination within the concept count
        assert len(closure_iterates(mind, small)) - 1 <= len(mind.space)
        # finitariness: an exhaustive subset scan finds a witness
        if closed:
            concept = sorted(closed)[rng.randrange(len(closed))]
            witness = None
            members = sorted(small)
            for size in range(len(members) + 1):
                for combo in combinations(members, size):
                    if concept in closure(mind, frozenset(combo)):
                        witness = frozenset(combo)
                        break
                if witness is not None:
                    break
            assert witness is not None and witness <= small
        # directed-union continuity along a chain
        chain = [small]
        for _ in range(rng.randint(1, 3)):
            chain.append(chain[-1] | helpers.random_state(rng, mind))
        union = frozenset().union(*chain)
        assert one_step_expansion(mind, union) == frozenset().union(
            *(one_step_expansion(mind, k) for k in chain)
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _stamp(4, f"closure axioms on 500 random minds ({elapsed:.2f} s)")


def test_criterion_05_derivation_equivalence():
    rng = random.Random(105)
    start = time.perf_counter()
    for _ in range(500):
        mind = helpers.random_mind(rng, max_concepts=6, max_rules=10)
        state = helpers.random_state(rng, mind)
        concept = rng.choice(mind.space.concepts)
        tree = derive(mind, state, concept)
        assert (tree is not None) == (concept in closure(mind, state))
        if tree is not None:
            curriculum = curriculum_from_derivation(tree)
            assert validate_curriculum(mind, state, curriculum)
            assert concept in set(state) | set(curriculum.concepts)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _stamp(5, f"derivation equivalence on 500 random triples ({elapsed:.2f} s)")


def test_criterion_06_capacity(star):
    start = time.perf_counter()
    system = helpers.star_system()
    assert capacity(star, system, {"a"}) == pytest.approx(1.0, abs=1e-12)
    assert capacity(star, system, {"a", "b"}) == pytest.approx(math.log2(5), abs=1e-12)
    rng = random.Random(106)
    for _ in range(200):
        mind = helpers.random_mind(rng, max_concepts=6)
        sys_ = helpers.random_system(rng, mind)
        family = enumerate_reachable(mind)
        caps = {
            m: capacity(mind, sys_, mind.space.labels(m)) for m in family.state_masks
        }
        for small in family.state_masks:
            for big in family.state_masks:
                if small & ~big == 0:
                    assert caps[small] <= caps[big] + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _stamp(6, f"capacity fixtures and monotonicity on 200 random minds ({elapsed:.2f} s)")


def test_criterion_07_teaching_fixtures(arithmetic_scenario, star_scenario):
    # the scripted three-round interaction
    strategy = scripted_strategy(helpers.arithmetic_script())
    third = 1.0 / 3.0
    expected = [
        (third, third, third),
        (third, third, third),
        (0.0, 0.5, 0.5),
        (0.0, 0.0, 1.0),
    ]
    history = ("z_b", "z_c", "z_d")
    for steps in range(4):
        belief = posterior_after(arithmetic_scenario, strategy, history[:steps])
        assert belief == pytest.approx(expected[steps], abs=1e-9)
    trace = run_episode(arithmetic_scenario, strategy, 3, seed=2, theta="d")
    assert trace.tau == 3

    # the star scenario: two rounds for every target, meeting the lower bound
    direct = direct_strategy(star_scenario)
    taus = {}
    for theta in star_scenario.targets:
        episode = run_episode(star_scenario, direct, 2, seed=5, theta=theta)
        assert episode.tau == 2
        taus[theta] = episode.tau
    expected_tau = sum(
        star_scenario.prior_of(t) * taus[t] for t in star_scenario.targets
    )
    expected_depth = sum(
        star_scenario.prior_of(t) * structural_distance(star_scenario.mind, t)
        for t in star_scenario.targets
    )
    cap_max = max_capacity(star_scenario.mind, star_scenario.system)
    floor = max(expected_depth, entropy_bits(star_scenario.prior) / cap_max)
    assert expected_tau == pytest.approx(2.0, abs=1e-12)
    assert floor == pytest.approx(2.0, abs=1e-12)
    _stamp(7, "teaching fixtures reproduce posteriors and completion times")


def test_criterion_08_information_law_audit():
    rng = random.Random(108)
    start = time.perf_counter()
    for _ in range(200):
        scenario = helpers.random_scenario(rng, max_concepts=6, max_tokens=6, max_targets=4)
        horizon = rng.randint(1, 4)
        strategies = {
            "direct": direct_strategy(scenario),
            "scripted": scripted_strategy(helpers.random_script(rng, scenario, horizon)),
            "broadcast": broadcast_strategy(helpers.random_row(rng, scenario, horizon)),
        }
        for name, strategy in strategies.items():
            tree = build_history_tree(scenario, strategy, horizon)
            report = audit_all(tree)
            assert report.passed, (name, report.lines())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _stamp(8, f"information laws on 200 random scenarios x 3 strategies ({elapsed:.2f} s)")


def test_criterion_09_blackwell_garbling():
    rng = random.Random(109)
    start = time.perf_counter()
    for _ in range(100):
        scenario = helpers.random_scenario(rng, max_concepts=6, max_tokens=6, max_targets=4)
        mind, system = scenario.mind, scenario.system
        family = enumerate_reachable(mind)
        masks = sorted(family.state_masks)
        laws = []
        direct = direct_strategy(scenario)
        laws.append({t: dict(direct(t, ())) for t in scenario.targets})
        row = helpers.random_row(rng, scenario, 2)
        shared = broadcast_strategy(row)
        laws.append({t: dict(shared(t, ())) for t in scenario.targets})
        # one history-conditioned kernel: the direct strategy one round in
        tree = build_history_tree(scenario, direct, 1)
        first = next(iter(tree.root.children))
        laws.append({t: dict(direct(t, (first,))) for t in scenario.targets})

        matrices = [
            {
                m: experiment_matrix(mind, system, mind.space.labels(m), law, scenario.targets)
                for m in masks
            }
            for law in laws
        ]
        for small in masks:
            small_set = mind.space.labels(small)
            for big in masks:
                if small & ~big:
                    continue
                big_set = mind.space.labels(big)
                g = garbling_map(mind, system, small_set, big_set)
                for per_state in matrices:
                    assert check_blackwell(per_state[small], per_state[big], g, tol=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _stamp(9, f"garbling check over all nested pairs of 100 scenarios ({elapsed:.2f} s)")


def test_criterion_10_thresholds_and_allocation():
    rng = random.Random(110)
    start = time.perf_counter()
    done = 0
    while done < 100:
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
            step = deterministic_value(mind, system, goal, t)
            assert step == (0 if t < depth else 1)
            assert exact_value_tiny(scenario, t) == pytest.approx(float(step), abs=0.0)
        done += 1
    plan = allocate(4, 5, 2)
    assert plan.completed == 2 and plan.even_split_completed == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _stamp(10, f"threshold step vs exhaustive search on 100 instances ({elapsed:.2f} s)")


def test_criterion_11_broadcast_penalty():
    start = time.perf_counter()
    for k in (2, 3):
        for depth in (2, 3):
            instance = broadcast_construct(k, depth)
            bound = k * (depth - 1) + 1
            assert broadcast_min_length(instance) == bound
            assert all(broadcast_check(instance, instance.tight_sequence))
            assert len(instance.tight_sequence) == bound
            assert not all(broadcast_check(instance, instance.tight_sequence[:-1]))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _stamp(11, f"broadcast penalty tight for k, depth in {{2, 3}} ({elapsed:.2f} s)")
