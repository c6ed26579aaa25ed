"""Differential tests: point-kernel rounds, which filter by parse, against the law-dict route.

Wrapping a :class:`PointKernel` in a plain function hides its tokens, so
``run_episode`` and ``posterior_after`` take the law-dict route through
``Scenario.step`` on the same laws; both routes must give equal traces
and beliefs, or the same error with the same text.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    NoesisError,
    PointKernel,
    StrategyError,
    broadcast_strategy,
    direct_strategy,
    posterior_after,
    run_episode,
    scripted_strategy,
)


def _dict_route(kernel):
    return lambda target, history: kernel(target, history)


def _outcome(call):
    try:
        return call()
    except NoesisError as exc:
        return type(exc).__name__, str(exc)


def _scenario(rng: random.Random):
    scenario = helpers.random_scenario(rng, max_tokens=5)
    if rng.random() < 0.5:
        scenario = helpers.rephrased(rng, scenario)
    return helpers.some_zero_prior(rng, scenario)


def _row(rng: random.Random, scenario, horizon: int) -> tuple[str, ...]:
    """A token row that may end before ``horizon`` and may hold a token outside the alphabet."""
    row = list(helpers.random_row(rng, scenario, rng.randint(0, horizon + 1)))
    if row and rng.random() < 0.2:
        row[rng.randrange(len(row))] = "zz_unknown"
    return tuple(row)


def _kernel(rng: random.Random, scenario, horizon: int) -> PointKernel:
    kind = rng.choice(("direct", "scripted", "broadcast"))
    if kind == "direct":
        return direct_strategy(scenario)
    if kind == "scripted":
        return scripted_strategy({t: _row(rng, scenario, horizon) for t in scenario.targets})
    return broadcast_strategy(_row(rng, scenario, horizon))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_run_episode_matches_dict_route(rng):
    scenario = _scenario(rng)
    horizon = rng.randint(0, 8)  # past the direct plans' ends and past short rows
    kernel = _kernel(rng, scenario, horizon)
    seed = rng.randrange(1000)
    thetas = [None, rng.choice(scenario.targets)]
    thetas += [t for t, p in zip(scenario.targets, scenario.prior) if p == 0.0][:1]
    for theta in thetas:
        got = _outcome(lambda: run_episode(scenario, kernel, horizon, seed, theta=theta))
        want = _outcome(lambda: run_episode(scenario, _dict_route(kernel), horizon, seed, theta=theta))
        assert got == want


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_posterior_after_matches_dict_route(rng):
    scenario = _scenario(rng)
    horizon = rng.randint(0, 4)
    if rng.random() < 0.5:
        kernel = direct_strategy(scenario)
    else:
        kernel = scripted_strategy(helpers.random_script(rng, scenario, horizon))
    tree = oracle.build_history_tree(scenario, kernel, horizon)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children.values())
        got = posterior_after(scenario, kernel, node.history)
        assert got == posterior_after(scenario, _dict_route(kernel), node.history)
    # Any parsed history, feasible or not, long enough to exhaust a script.
    outcomes = list(scenario.system.tokens) + [None, "zz_unknown"]
    for _ in range(4):
        history = [rng.choice(outcomes) for _ in range(rng.randint(0, horizon + 2))]
        got = _outcome(lambda: posterior_after(scenario, kernel, history))
        assert got == _outcome(lambda: posterior_after(scenario, _dict_route(kernel), history))


def test_other_kernel_errors_come_before_unknown_tokens():
    """An unknown token of an earlier target waits for a later target's kernel error."""
    scenario = helpers.star_scenario()
    first, second, theta = scenario.targets[:3]
    good = scenario.system.tokens[0]
    kernel = scripted_strategy({first: ("zz_unknown",), second: (), theta: (good,)})
    want = ("StrategyError", f"script row for {second!r} exhausted at round 1")
    for strategy in (kernel, _dict_route(kernel)):
        assert _outcome(lambda: run_episode(scenario, strategy, 1, 0, theta=theta)) == want


class _NoLaws(PointKernel):
    """A point kernel that refuses to give a law dict."""

    def __call__(self, target, history):
        raise AssertionError("a point round asked for a law dict")


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_point_rounds_read_tokens_only(rng):
    scenario = _scenario(rng)
    horizon = rng.randint(0, 6)
    kernel = _kernel(rng, scenario, horizon)
    guarded = _NoLaws(kernel.token)
    seed = rng.randrange(1000)
    got = _outcome(lambda: run_episode(scenario, guarded, horizon, seed))
    assert got == _outcome(lambda: run_episode(scenario, _dict_route(kernel), horizon, seed))
    history = [r.parsed for r in got.rounds] if not isinstance(got, tuple) else []
    got = _outcome(lambda: posterior_after(scenario, guarded, history))
    assert got == _outcome(lambda: posterior_after(scenario, _dict_route(kernel), history))


def test_point_kernel_law_is_its_token():
    kernel = scripted_strategy({"a": ("x", "y")})
    assert kernel.token("a", 1) == "y"
    assert kernel("a", (None,)) == {"y": 1.0}
    with pytest.raises(StrategyError, match="script row for 'a' exhausted at round 3"):
        kernel("a", (None, None))
