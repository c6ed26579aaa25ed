"""Differential tests: the mask-level teaching round against the per-token oracle."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    ZeroProbabilityError,
    broadcast_strategy,
    build_history_tree,
    direct_strategy,
    exact_value_tiny,
    posterior_after,
    run_episode,
)

TOL = 1e-12


def _case(rng: random.Random):
    scenario = helpers.some_zero_prior(rng, helpers.random_scenario(rng, max_tokens=5))
    if rng.random() < 0.75:
        strategy = helpers.random_kernel(rng.randrange(1 << 30), scenario)
    else:
        strategy = direct_strategy(scenario)
    return scenario, strategy, rng.randint(0, 3)


def _known_heavy_kernel(seed: int, scenario):
    """A stochastic kernel that mostly emits tokens of concepts the learner may already know.

    Its support mixes rephrasings of the axioms and of the target's chain
    with random tokens, and depends only on the target, the round and the
    last parsed observation.
    """
    system, axioms = scenario.system, scenario.mind.axioms
    memo: dict[tuple, dict[str, float]] = {}

    def kernel(target: str, history: tuple) -> dict[str, float]:
        key = (target, len(history), history[-1] if history else "")
        if key not in memo:
            rng = random.Random(f"{seed}:{key}")
            near = [t for t, c in zip(system.tokens, system.targets) if c in axioms or c == target]
            support = rng.sample(near, min(2, len(near))) + rng.sample(system.tokens, 1)
            weights = [rng.randint(1, 3) for _ in support]
            law: dict[str, float] = {}
            for tok, w in zip(support, weights):
                law[tok] = law.get(tok, 0.0) + w / sum(weights)
            memo[key] = law
        return memo[key]

    return kernel


def _one_token_kernel(seed: int, scenario):
    """A history-dependent kernel whose every law has one positive token among zero entries.

    Zero entries may come before or after the positive one, whose mass is
    1 or falls short of 1 by less than the kernel tolerance.
    """
    tokens = scenario.system.tokens
    memo: dict[tuple, dict[str, float]] = {}

    def kernel(target: str, history: tuple) -> dict[str, float]:
        key = (target, len(history), history[-1] if history else "")
        if key not in memo:
            rng = random.Random(f"{seed}:{key}")
            support = rng.sample(tokens, rng.randint(1, min(4, len(tokens))))
            law = dict.fromkeys(support, 0.0)
            law[rng.choice(support)] = rng.choice((1.0, 1.0 - 2e-10))
            memo[key] = law
        return memo[key]

    return kernel


def _assert_same_episode(got, want):
    assert (got.theta, got.seed, got.horizon, got.tau, got.tau_id) == (
        want.theta, want.seed, want.horizon, want.tau, want.tau_id
    )
    assert len(got.rounds) == len(want.rounds)
    for g, w in zip(got.rounds, want.rounds):
        assert (g.t, g.emitted, g.parsed, g.state) == (w.t, w.emitted, w.parsed, w.state)
        assert g.belief == pytest.approx(w.belief, abs=TOL)
        assert g.entropy_bits == pytest.approx(w.entropy_bits, abs=TOL)
        assert g.capacity_bits == w.capacity_bits


def _assert_same_tree(got, want):
    assert got.node_count == want.node_count
    pairs = list(zip(got.iter_nodes(), want.iter_nodes()))
    assert len(pairs) == want.node_count
    for g, w in pairs:
        assert g.history == w.history
        assert g.state == w.state
        assert list(g.children) == list(w.children)
        assert g.prob == pytest.approx(w.prob, abs=TOL)
        assert g.joint == pytest.approx(w.joint, abs=TOL)
        assert g.belief == pytest.approx(w.belief, abs=TOL)
        assert (g.emission is None) == (w.emission is None)
        if w.emission is not None:
            for g_row, w_row in zip(g.emission, w.emission):
                assert g_row == pytest.approx(w_row, abs=TOL)


def _trace_or_error(run, *args, **kwargs):
    """The episode trace, or the message of the ZeroProbabilityError it raises."""
    try:
        return run(*args, **kwargs)
    except ZeroProbabilityError as exc:
        return str(exc)


class TestStepMatchesOracle:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_history_tree(self, rng):
        scenario, strategy, horizon = _case(rng)
        _assert_same_tree(
            build_history_tree(scenario, strategy, horizon),
            oracle.build_history_tree(scenario, strategy, horizon),
        )

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_posterior_along_every_history(self, rng):
        scenario, strategy, horizon = _case(rng)
        tree = oracle.build_history_tree(scenario, strategy, horizon)
        for node in tree.iter_nodes():
            got = posterior_after(scenario, strategy, node.history)
            assert got == pytest.approx(oracle.posterior_after(scenario, strategy, node.history), abs=TOL)
            assert got == pytest.approx(node.belief, abs=TOL)
        # an outcome the tree never produced has probability zero on both routes
        for node in tree.internal_nodes():
            missing = [y for y in (*scenario.system.tokens, None) if y not in node.children]
            if missing:
                history = node.history + (missing[0],)
                with pytest.raises(ZeroProbabilityError):
                    posterior_after(scenario, strategy, history)
                with pytest.raises(ZeroProbabilityError):
                    oracle.posterior_after(scenario, strategy, history)
                break

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_episode_trace(self, rng):
        scenario, strategy, horizon = _case(rng)
        seed = rng.randrange(1000)
        _assert_same_episode(
            run_episode(scenario, strategy, horizon + 2, seed),
            oracle.run_episode(scenario, strategy, horizon + 2, seed),
        )

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_episode_trace_with_rephrasings_and_known_concepts(self, rng):
        # Several tokens per concept, and kernels that keep teaching known
        # concepts, exercise the ordered-token count the episode keeps.
        scenario = helpers.some_zero_prior(rng, helpers.rephrased(rng, helpers.random_scenario(rng, max_concepts=7)))
        kind = rng.randrange(3)
        if kind == 0:
            strategy = _known_heavy_kernel(rng.randrange(1 << 30), scenario)
        elif kind == 1:
            strategy = helpers.random_kernel(rng.randrange(1 << 30), scenario)
        else:
            strategy = direct_strategy(scenario)
        horizon, seed = rng.randint(0, 9), rng.randrange(1000)
        _assert_same_episode(
            run_episode(scenario, strategy, horizon, seed),
            oracle.run_episode(scenario, strategy, horizon, seed),
        )
        if horizon <= 3:
            _assert_same_tree(
                build_history_tree(scenario, strategy, horizon),
                oracle.build_history_tree(scenario, strategy, horizon),
            )

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_one_token_laws_give_the_oracle_trace_exactly(self, rng):
        # One positive token per law: the round is not drawn, and both
        # routes multiply the same weights by the same masses.
        scenario = helpers.some_zero_prior(rng, helpers.rephrased(rng, helpers.random_scenario(rng)))
        strategy = _one_token_kernel(rng.randrange(1 << 30), scenario)
        live = [t for t, w in zip(scenario.targets, scenario.prior) if w > 0.0]
        horizon, seed = rng.randint(0, 8), rng.randrange(1000)
        theta = rng.choice((None, rng.choice(live)))
        assert run_episode(scenario, strategy, horizon, seed, theta=theta) == oracle.run_episode(
            scenario, strategy, horizon, seed, theta=theta
        )

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_pinned_zero_prior_theta(self, rng):
        scenario = helpers.random_scenario(rng)
        while len(scenario.targets) < 2:
            scenario = helpers.random_scenario(rng)
        zero = rng.randrange(len(scenario.targets))
        weights = [0.0 if i == zero else w for i, w in enumerate(scenario.prior)]
        scenario = dataclasses.replace(scenario, prior=tuple(w / sum(weights) for w in weights))
        theta = scenario.targets[zero]
        if rng.random() < 0.5:
            strategy = _one_token_kernel(rng.randrange(1 << 30), scenario)
        else:
            strategy = broadcast_strategy(rng.choices(scenario.system.tokens, k=8))
        seed = rng.randrange(1000)
        for horizon in range(8):
            # Once theta's emission is impossible for every live target, both
            # raise ZeroProbabilityError with the same message.
            got = _trace_or_error(run_episode, scenario, strategy, horizon, seed, theta=theta)
            assert got == _trace_or_error(oracle.run_episode, scenario, strategy, horizon, seed, theta=theta)
            if isinstance(got, str):
                break

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_exact_value(self, rng):
        scenario = helpers.some_zero_prior(rng, helpers.random_tiny_scenario(rng))
        for t in range(4):
            assert exact_value_tiny(scenario, t) == pytest.approx(
                oracle.exact_value_tiny(scenario, t), abs=TOL
            )
