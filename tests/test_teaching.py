from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from noesis import (
    Mind,
    MissingSignalError,
    Scenario,
    ScenarioError,
    SignalSystem,
    StrategyError,
    ZeroProbabilityError,
    audit_all,
    audit_history,
    broadcast_strategy,
    build_history_tree,
    capacity,
    direct_strategy,
    enumerate_reachable,
    knowledge_update,
    max_capacity,
    ordered_signals,
    posterior_after,
    run_episode,
    scripted_strategy,
    state_after,
    structural_distance,
)
from noesis.mind import iter_bits


class TestScenarioInvariants:
    def test_target_outside_horizon_rejected(self, mind1):
        mind = helpers.make_mind("abcde", "a", [("a", "b"), ("b", "c"), ("bc", "d")])
        system = SignalSystem.from_pairs([("z_e", "e"), ("z_b", "b")])
        with pytest.raises(ScenarioError, match="horizon"):
            Scenario(mind=mind, system=system, targets=("e",), prior=(1.0,))

    def test_target_without_token_rejected(self, mind1):
        system = SignalSystem.from_pairs([("z_b", "b")])
        with pytest.raises(ScenarioError, match="token"):
            Scenario(mind=mind1, system=system, targets=("c",), prior=(1.0,))

    def test_prior_must_normalize(self, mind1):
        system = helpers.arithmetic_system()
        with pytest.raises(ScenarioError, match="prior"):
            Scenario(mind=mind1, system=system, targets=("b", "c"), prior=(0.7, 0.2))
        with pytest.raises(ScenarioError, match="prior"):
            Scenario(mind=mind1, system=system, targets=("b", "c"), prior=(1.2, -0.2))

    @pytest.mark.parametrize("prior", [(math.nan, 0.25, 0.25, 0.25), (0.25, 0.25, 0.25, math.nan)])
    def test_nan_prior_weight_rejected(self, prior):
        with pytest.raises(ScenarioError, match="^prior: "):
            dataclasses.replace(helpers.star_scenario(), prior=prior)


class TestLearnerView:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_grown_view_equals_fresh_view(self, rng):
        # Rephrasings give concepts several tokens each, so a grown view
        # must add every token of each newly ordered concept.
        scenario = helpers.rephrased(rng, helpers.random_scenario(rng, max_concepts=7))
        mind, system = scenario.mind, scenario.system
        for mask in enumerate_reachable(mind).state_masks:
            view = scenario.view(mask)
            state = mind.space.labels(mask)
            assert view[1] == len(ordered_signals(mind, system, state))
            assert view[2] == capacity(mind, system, state)
            for bit in iter_bits(view[0] & ~mask):
                assert scenario.grow_view(view, mask, bit) == scenario.view(mask | bit)
        assert scenario.view(mind.horizon_mask)[2] == max_capacity(mind, system)

    @pytest.mark.parametrize("walk", ["episode", "posterior", "tree", "audit"])
    def test_walks_view_the_root_once_and_grow_each_new_state(self, monkeypatch, walk):
        # The direct strategy teaches an 8-concept chain in order, so each
        # round adds one concept: a walk grows one view per new state and
        # expands no state in full past the root, whatever its horizon.
        labels = [f"c{i}" for i in range(8)]
        mind = helpers.make_mind(labels, labels[:1], [((p,), c) for p, c in zip(labels, labels[1:])])
        system = SignalSystem.from_pairs((f"z_{c}", c) for c in labels[1:])
        scenario = Scenario(mind=mind, system=system, targets=("c7",), prior=(1.0,))
        strategy = direct_strategy(scenario)
        calls: Counter[str] = Counter()
        for cls, name in ((Scenario, "view"), (Scenario, "grow_view"), (Mind, "expand_mask")):
            def counted(self, *args, _original=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)

        def run(horizon: int) -> tuple[int, int, int]:
            calls.clear()
            if walk == "episode":
                run_episode(scenario, strategy, horizon, seed=0)
            elif walk == "posterior":
                posterior_after(scenario, strategy, tuple(f"z_{c}" for c in labels[1 : horizon + 1]))
            elif walk == "tree":
                build_history_tree(scenario, strategy, horizon)
            else:
                audit_history(scenario, strategy, horizon)
            return calls["view"], calls["grow_view"], calls["expand_mask"]

        short, long = run(3), run(6)
        # Each tree walk leaves its horizon's nodes unexpanded, so it grows no view for them.
        grown = 6 if walk in ("episode", "posterior") else 5
        assert long == (1, grown, short[2])


class TestKnowledgeUpdate:
    def test_acquire_and_ignore(self, star):
        system = helpers.star_system()
        assert knowledge_update(star, system, {"a"}, "z_b") == {"a", "b"}
        assert knowledge_update(star, system, {"a"}, None) == {"a"}
        assert knowledge_update(star, system, {"a", "b"}, "z_b") == {"a", "b"}

    def test_state_after_folds_history(self, star_scenario):
        assert state_after(star_scenario, ("z_b", None, "z_2")) == {"a", "b", "d2"}


class TestPosterior:
    def test_full_interaction_posteriors(self, arithmetic_scenario):
        strategy = scripted_strategy(helpers.arithmetic_script())
        third = 1.0 / 3.0
        assert posterior_after(arithmetic_scenario, strategy, ("z_b",)) == pytest.approx(
            (third, third, third), abs=1e-9
        )
        assert posterior_after(
            arithmetic_scenario, strategy, ("z_b", "z_c")
        ) == pytest.approx((0.0, 0.5, 0.5), abs=1e-9)
        assert posterior_after(
            arithmetic_scenario, strategy, ("z_b", "z_c", "z_d")
        ) == pytest.approx((0.0, 0.0, 1.0), abs=1e-9)

    def test_target_independent_strategy_never_updates(self, star_scenario):
        strategy = broadcast_strategy(("z_b", "z_1", "z_2"))
        history: tuple = ()
        for parsed in ("z_b", "z_1", "z_2"):
            belief = posterior_after(star_scenario, strategy, history + (parsed,))
            assert belief == pytest.approx(star_scenario.prior, abs=1e-12)
            history += (parsed,)

    def test_zero_probability_history_rejected(self, arithmetic_scenario):
        strategy = scripted_strategy(helpers.arithmetic_script())
        with pytest.raises(ZeroProbabilityError):
            posterior_after(arithmetic_scenario, strategy, ("z_c",))


class TestStrategies:
    def test_direct_star_plans(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        assert strategy("d3", ()) == {"z_b": 1.0}
        assert strategy("d3", ("z_b",)) == {"z_3": 1.0}
        # plan keeps naming the target after completion
        assert strategy("d3", ("z_b", "z_3")) == {"z_3": 1.0}

    def test_direct_requires_tokens_for_horizon(self, mind1):
        system = SignalSystem.from_pairs([("z_b", "b"), ("z_d", "d")])
        scenario = Scenario(mind=mind1, system=system, targets=("b",), prior=(1.0,))
        with pytest.raises(MissingSignalError, match="'c'"):
            direct_strategy(scenario)

    def test_scripted_row_exhaustion(self, arithmetic_scenario):
        strategy = scripted_strategy({"b": ("z_b",), "c": ("z_b",), "d": ("z_b",)})
        strategy("b", ())
        with pytest.raises(StrategyError, match="exhausted"):
            strategy("b", ("z_b",))

    def test_scripted_missing_row(self, arithmetic_scenario):
        strategy = scripted_strategy({"b": ("z_b",)})
        with pytest.raises(StrategyError, match="no script row"):
            strategy("c", ())

    @pytest.mark.parametrize("law", [{"z_b": float("nan"), "z_1": 1.0}, {"z_b": float("nan")}])
    def test_nan_kernel_law_rejected(self, star_scenario, law):
        def kernel(target: str, history: tuple) -> dict[str, float]:
            return law if target == "d1" else {"z_b": 1.0}

        with pytest.raises(StrategyError, match="not a distribution"):
            build_history_tree(star_scenario, kernel, 1)
        with pytest.raises(StrategyError, match="not a distribution"):
            run_episode(star_scenario, kernel, 1, seed=0, theta="d1")


class TestRunEpisode:
    def test_full_interaction_episode(self, arithmetic_scenario):
        strategy = scripted_strategy(helpers.arithmetic_script())
        trace = run_episode(arithmetic_scenario, strategy, 3, seed=5, theta="d")
        assert trace.tau == 3 and trace.tau_id == 3
        assert [r.parsed for r in trace.rounds] == ["z_b", "z_c", "z_d"]
        assert trace.rounds[-1].state == {"a", "b", "c", "d"}
        assert trace.rounds[-1].belief == pytest.approx((0.0, 0.0, 1.0), abs=1e-9)

    def test_star_direct_completes_in_two(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        for theta in star_scenario.targets:
            trace = run_episode(star_scenario, strategy, 2, seed=9, theta=theta)
            assert trace.tau == 2 and trace.tau_id == 2

    def test_zero_horizon(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        trace = run_episode(star_scenario, strategy, 0, seed=1, theta="d1")
        assert trace.rounds == () and trace.tau is None and trace.tau_id is None

    def test_point_prior_completes_at_the_structural_depth(self, mind1):
        # identification is free under a point prior, so the chain alone
        # finishes the job in exactly as many rounds as its length
        scenario = Scenario(
            mind=mind1,
            system=helpers.arithmetic_system(),
            targets=("d",),
            prior=(1.0,),
        )
        strategy = direct_strategy(scenario)
        trace = run_episode(scenario, strategy, 4, seed=2)
        assert [r.emitted for r in trace.rounds[:3]] == ["z_b", "z_c", "z_d"]
        assert trace.tau == 3 == structural_distance(scenario.mind, "d")
        assert trace.tau_id == 0

    def test_zero_horizon_point_prior_on_axiom(self):
        mind = helpers.make_mind("ab", "a", [("a", "b")])
        system = SignalSystem.from_pairs([("z_a", "a"), ("z_b", "b")])
        scenario = Scenario(mind=mind, system=system, targets=("a",), prior=(1.0,))
        trace = run_episode(scenario, direct_strategy(scenario), 0, seed=1)
        assert trace.tau == 0 and trace.tau_id == 0

    def test_same_seed_reproduces_trace(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        a = run_episode(star_scenario, strategy, 2, seed=123)
        b = run_episode(star_scenario, strategy, 2, seed=123)
        assert a == b
        c = run_episode(star_scenario, strategy, 2, seed=124)
        assert a != c or a.theta == c.theta  # different seed may still sample same target

    def test_episode_invariants_random(self):
        rng = random.Random(51)
        for _ in range(40):
            scenario = helpers.random_scenario(rng)
            strategy = direct_strategy(scenario)
            horizon = rng.randint(0, 5)
            trace = run_episode(scenario, strategy, horizon, seed=rng.randint(0, 999))
            family = enumerate_reachable(scenario.mind)
            state = frozenset(scenario.mind.axioms)
            assert state in family
            for r in trace.rounds:
                assert state <= r.state  # monotone acquisition
                state = r.state
                assert state in family
                assert r.entropy_bits >= -1e-12
            dist = structural_distance(scenario.mind, trace.theta)
            assert dist is not None
            if trace.tau is not None:
                assert trace.tau >= dist
                assert trace.tau_id is not None and trace.tau_id <= trace.tau
            if horizon >= dist + 1:
                # chain-then-name completes within the structural depth plus one
                assert trace.tau is not None and trace.tau <= dist + 1

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_each_live_target_is_queried_once_per_round(self, rng):
        scenario = helpers.some_zero_prior(rng, helpers.random_scenario(rng))
        kernel = helpers.random_kernel(rng.randrange(1 << 30), scenario)
        calls: list[tuple[int, str]] = []

        def counting(target: str, history: tuple) -> dict[str, float]:
            calls.append((len(history) + 1, target))
            return kernel(target, history)

        theta = rng.choice(scenario.targets)
        try:
            trace = run_episode(scenario, counting, rng.randint(0, 6), seed=rng.randrange(1000), theta=theta)
        except ZeroProbabilityError:
            # theta has prior 0 and no live target can emit what it emitted
            assert scenario.prior_of(theta) == 0.0
            assert max(Counter(calls).values()) == 1
            return
        beliefs = [scenario.prior] + [r.belief for r in trace.rounds]
        want = Counter(
            (t, target)
            for t in range(1, trace.horizon + 1)
            for target, w in zip(scenario.targets, beliefs[t - 1])
            if w > 0.0 or target == theta
        )
        assert Counter(calls) == want

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_posterior_after_asks_each_live_target_once_per_round(self, rng):
        scenario = helpers.some_zero_prior(rng, helpers.random_scenario(rng))
        kernel = helpers.random_kernel(rng.randrange(1 << 30), scenario)
        calls: list[tuple[str, tuple]] = []

        def recording(target: str, history: tuple) -> dict[str, float]:
            calls.append((target, history))
            return kernel(target, history)

        theta = rng.choice(scenario.targets)
        try:
            trace = run_episode(scenario, recording, rng.randint(0, 6), seed=rng.randrange(1000), theta=theta)
        except ZeroProbabilityError:
            assert scenario.prior_of(theta) == 0.0
            return
        history = tuple(r.parsed for r in trace.rounds)
        assert all(h == history[: len(h)] for _, h in calls)
        calls.clear()
        posterior_after(scenario, recording, history)
        want = [
            (target, history[:t])
            for t in range(len(history))
            for target, w in zip(scenario.targets, posterior_after(scenario, kernel, history[:t]))
            if w > 0.0
        ]
        assert calls == want

    def test_pinned_theta_must_be_a_target(self, star_scenario):
        with pytest.raises(ScenarioError):
            run_episode(star_scenario, direct_strategy(star_scenario), 1, seed=0, theta="b")


def _fork_scenario() -> Scenario:
    """Two targets unlocked straight from the axiom; all prior mass on ``b``."""
    mind = helpers.make_mind("abc", "a", [("a", "b"), ("a", "c")])
    system = SignalSystem.from_pairs([("z_b", "b"), ("z_c", "c")])
    return Scenario(mind=mind, system=system, targets=("b", "c"), prior=(1.0, 0.0))


class TestZeroWeightTargets:
    def test_pinned_target_with_zero_prior(self):
        scenario = _fork_scenario()
        with pytest.raises(ZeroProbabilityError):
            run_episode(scenario, direct_strategy(scenario), 2, seed=0, theta="c")

    def test_pinned_zero_prior_target_is_queried_once_per_round(self):
        # a shared row keeps theta's emission possible, so the episode runs on
        scenario = _fork_scenario()
        row = broadcast_strategy(("z_b", "z_c", "z_b"))
        calls = []

        def counting(target: str, history: tuple) -> dict[str, float]:
            calls.append((len(history) + 1, target))
            return row(target, history)

        trace = run_episode(scenario, counting, 3, seed=0, theta="c")
        assert [r.belief for r in trace.rounds] == [(1.0, 0.0)] * 3
        assert calls == [(1, "c"), (1, "b"), (2, "c"), (2, "b"), (3, "c"), (3, "b")]

    def test_zero_weight_kernel_is_never_consulted(self):
        # the row for 'c' runs out after one round, but 'c' has prior 0
        scenario = _fork_scenario()
        strategy = scripted_strategy({"b": ("z_b", "z_b", "z_b"), "c": ("z_c",)})
        trace = run_episode(scenario, strategy, 3, seed=0)
        assert trace.theta == "b" and trace.tau == 1
        assert posterior_after(scenario, strategy, ("z_b",) * 3) == (1.0, 0.0)
        assert audit_all(build_history_tree(scenario, strategy, 3)).passed
