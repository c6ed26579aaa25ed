"""Differential tests: the streaming audit against the built tree and its audit.

``audit_history`` must give ``(tree.node_count, audit_all(tree))`` for
the tree ``build_history_tree`` builds, or raise the same exception with
the same message, after the same kernel calls in the same order; its
erasure check must equal the general restricted mutual information kept
in ``oracle.restricted_mi``.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    NoesisError,
    Scenario,
    SignalSystem,
    audit_all,
    audit_history,
    broadcast_strategy,
    build_history_tree,
    direct_strategy,
    scripted_strategy,
)
from noesis.audit import _erased_mi


def _stray(kernel, target: str, round_: int):
    """``kernel``, except that ``target`` names a token outside the alphabet at ``round_``."""

    def stray(t: str, history: tuple):
        if t == target and len(history) == round_:
            return {"stray": 1.0}
        return kernel(t, history)

    return stray


def _case(rng: random.Random):
    """A random scenario (some priors zero), horizon and strategy; rows may run out early."""
    scenario = helpers.some_zero_prior(rng, helpers.random_scenario(rng, max_concepts=7, max_tokens=6))
    horizon = rng.randint(0, 6)
    rows = horizon if rng.random() < 0.5 else rng.randint(0, horizon)
    kind = rng.randrange(5)
    if kind == 0:
        strategy = direct_strategy(scenario)
    elif kind == 1:
        strategy = scripted_strategy(helpers.random_script(rng, scenario, rows))
    elif kind == 2:
        strategy = broadcast_strategy(helpers.random_row(rng, scenario, rows))
    else:
        strategy = helpers.random_kernel(rng.randrange(1 << 30), scenario)
        if kind == 4:
            strategy = _stray(strategy, rng.choice(scenario.targets), rng.randint(0, horizon))
    return scenario, strategy, horizon


def _outcome(audit, *args, **cap):
    """What an audit returns, or the type and message of what it raises."""
    try:
        return audit(*args, **cap)
    except (NoesisError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _tree_audit(*args, **cap):
    tree = build_history_tree(*args, **cap)
    return tree.node_count, audit_all(tree)


def _recording(kernel, calls: list):
    """``kernel``, appending each ``(target, history)`` it is called with to ``calls``."""

    def record(target: str, history: tuple):
        calls.append((target, history))
        return kernel(target, history)

    return record


def _assert_same_outcome(scenario, strategy, horizon, **cap) -> None:
    """The same result or error, after the same kernel calls in the same order."""
    streamed, built = [], []
    got = _outcome(audit_history, scenario, _recording(strategy, streamed), horizon, **cap)
    assert got == _outcome(_tree_audit, scenario, _recording(strategy, built), horizon, **cap)
    assert streamed == built


class TestStreamingMatchesTree:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=400, deadline=None)
    def test_random_scenarios_and_caps(self, rng):
        scenario, strategy, horizon = _case(rng)
        args = (scenario, strategy, horizon)
        full = _outcome(_tree_audit, *args)
        _assert_same_outcome(*args)
        size = full[0] if isinstance(full[0], int) else rng.randint(1, 40)
        for cap in sorted({1, rng.randint(1, size), max(size - 1, 1), size, size + 1}):
            _assert_same_outcome(*args, node_cap=cap)

    def test_negative_horizon(self, star_scenario):
        _assert_same_outcome(star_scenario, direct_strategy(star_scenario), -1)

    @pytest.mark.parametrize("prior", [(0.5, 0.5, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (1e-320, 0.5, 0.25, 0.25)])
    @pytest.mark.parametrize("horizon", range(5))
    def test_zero_and_subnormal_weights(self, star_scenario, prior, horizon):
        scenario = Scenario(star_scenario.mind, star_scenario.system, star_scenario.targets, prior)
        for strategy in (direct_strategy(scenario), helpers.random_kernel(7, scenario)):
            _assert_same_outcome(scenario, strategy, horizon)

    def test_long_chain_with_rephrasings(self):
        # Every state is new, and its expansion is grown from its parent's;
        # every third concept has two tokens.
        n = 150
        concepts = [f"c{i}" for i in range(n + 1)]
        mind = helpers.make_mind(concepts, ["c0"], [([concepts[i]], concepts[i + 1]) for i in range(n)])
        pairs = []
        for c in concepts[1:]:
            pairs.append((f"z_{c}", c))
            if int(c[1:]) % 3 == 0:
                pairs.append((f"y_{c}", c))
        targets = ("c40", "c90", "c120", "c150")
        scenario = Scenario(mind, SignalSystem.from_pairs(pairs), targets, (0.1, 0.2, 0.3, 0.4))
        for strategy in (direct_strategy(scenario), helpers.random_kernel(3, scenario)):
            for horizon in (n + 1, 6):
                _assert_same_outcome(scenario, strategy, horizon)
        nodes, report = audit_history(scenario, direct_strategy(scenario), n + 1)
        assert report.passed and nodes > n


_positive = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, allow_subnormal=True)


@st.composite
def _parsed_tables(draw):
    """A sparse parsed table over ``n`` token columns and the null column ``n``, last in its row."""
    n = draw(st.integers(1, 4))
    table = []
    for _ in range(draw(st.integers(1, 5))):
        row = [(j, draw(_positive)) for j in sorted(draw(st.sets(st.integers(0, n - 1))))]
        if draw(st.booleans()):
            row.append((n, draw(_positive)))
        table.append(row)
    return n, table


def _assert_erased_mi_matches(n: int, table) -> None:
    nulls = [row[-1][1] for row in table if row and row[-1][0] == n]
    want = _outcome(oracle.restricted_mi, table, bytes(n) + b"\x01")
    assert _outcome(_erased_mi, nulls) == want


class TestErasedInformation:
    @given(_parsed_tables())
    @settings(max_examples=400, deadline=None)
    def test_matches_restricted_mi(self, case):
        _assert_erased_mi_matches(*case)

    @pytest.mark.parametrize(
        "table",
        [
            [[(1, 5e-324)], [(1, 5e-324)]],
            [[(0, 0.5), (1, 1e-310)], [(1, 2e-310)], []],
            [[(1, 1e-160)], [(0, 0.25), (1, 3e-160)]],
            [[(0, 1.0)], [(0, 0.5)]],
            # The null marginal sums to 1 + 2**-52 under an uncompensated
            # sum(), where q / (q * col) and 1 / col round apart.
            [[(1, 0.82)], [(0, 0.3), (1, 0.42)], [(1, 0.81)]],
        ],
    )
    def test_subnormal_and_empty_null_columns(self, table):
        _assert_erased_mi_matches(1, table)


def test_streaming_memory_does_not_grow_with_the_tree():
    # Six concepts all unlocked by the axiom, a uniform kernel over their
    # six tokens: every node has six children, 55,987 nodes at horizon 6.
    xs = [f"x{i}" for i in range(6)]
    mind = helpers.make_mind(["a"] + xs, ["a"], [(["a"], x) for x in xs])
    system = SignalSystem.from_pairs([(f"z{i}", x) for i, x in enumerate(xs)])
    scenario = Scenario(mind, system, ("x0", "x1"), (0.5, 0.5))
    law = {tok: 1 / 6 for tok in system.tokens}

    def uniform(target, history):
        return law

    tracemalloc.start()
    try:
        nodes, report = audit_history(scenario, uniform, 6)
        _, streaming_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        # The tree path holds every node, so its allocation grows with the
        # tree; the tree one round shorter, a sixth the size, already
        # dwarfs the streaming audit of the full one (and builds in a
        # fraction of the time under tracemalloc).
        tree = build_history_tree(scenario, uniform, 5)
        _, tree_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nodes >= 50_000 and report.passed
    assert tree.node_count * 5 < nodes
    assert streaming_peak * 20 < tree_peak
