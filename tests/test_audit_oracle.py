"""Differential tests: the explicit-stack tree and the sparse audit against the recursive, dense oracle."""

from __future__ import annotations

import dataclasses
import decimal
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    CapExceededError,
    HistoryNode,
    audit_all,
    broadcast_strategy,
    build_history_tree,
    direct_strategy,
    mutual_information_bits,
    round_mutual_info_from_joint,
    scripted_strategy,
)


def _strategy(rng: random.Random, scenario, horizon: int):
    kind = rng.randrange(4)
    if kind == 0:
        return direct_strategy(scenario)
    if kind == 1:
        return scripted_strategy(helpers.random_script(rng, scenario, horizon))
    if kind == 2:
        return broadcast_strategy(helpers.random_row(rng, scenario, horizon))
    return helpers.random_kernel(rng.randrange(1 << 30), scenario)


def _case(rng: random.Random, min_horizon: int = 0):
    scenario = helpers.some_zero_prior(rng, helpers.random_scenario(rng, max_concepts=7, max_tokens=6))
    horizon = rng.randint(min_horizon, 4)
    return scenario, _strategy(rng, scenario, horizon), horizon


def _assert_field_equal(got, want) -> None:
    assert (got.scenario, got.horizon, got.node_count) == (want.scenario, want.horizon, want.node_count)
    pairs = list(zip(got.iter_nodes(), want.iter_nodes()))
    assert len(pairs) == want.node_count
    for g, w in pairs:
        for f in dataclasses.fields(HistoryNode):
            if f.name == "children":
                assert list(g.children) == list(w.children)
            else:
                assert getattr(g, f.name) == getattr(w, f.name), f.name


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:  # a tampered or subnormal table
        return type(exc), str(exc)


def _cap_error(build, *args, cap: int):
    try:
        build(*args, node_cap=cap)
    except CapExceededError as exc:
        return str(exc)
    return None


class TestAuditMatchesOracle:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_tree_and_report(self, rng):
        scenario, strategy, horizon = _case(rng)
        tree = build_history_tree(scenario, strategy, horizon)
        _assert_field_equal(tree, oracle.build_history_tree_recursive(scenario, strategy, horizon))
        assert audit_all(tree) == oracle.audit_all_dense(tree)
        for node in tree.internal_nodes():
            assert round_mutual_info_from_joint(tree, node) == oracle.round_mutual_info_from_joint_dense(
                tree, node
            )

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_cap_fires_at_the_same_node(self, rng):
        scenario, strategy, horizon = _case(rng)
        size = build_history_tree(scenario, strategy, horizon).node_count
        for cap in sorted({1, rng.randint(1, size), size - 1, size, size + 1} - {0}):
            args = (scenario, strategy, horizon)
            got = _cap_error(build_history_tree, *args, cap=cap)
            assert got == _cap_error(oracle.build_history_tree_recursive, *args, cap=cap)
            assert (got is None) == (cap >= size)

    @pytest.mark.parametrize("prior", [(0.5, 0.5, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.1, 0.0, 0.2, 0.7)])
    @pytest.mark.parametrize("horizon", range(5))
    def test_zero_weight_targets(self, star_scenario, prior, horizon):
        scenario = dataclasses.replace(star_scenario, prior=prior)
        for strategy in (direct_strategy(scenario), helpers.random_kernel(7, scenario)):
            tree = build_history_tree(scenario, strategy, horizon)
            _assert_field_equal(tree, oracle.build_history_tree_recursive(scenario, strategy, horizon))
            assert audit_all(tree) == oracle.audit_all_dense(tree)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_mutual_information_of_dense_tables(self, rng):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        cells = [[rng.choice((0.0, 0.0, rng.random())) for _ in range(cols)] for _ in range(rows)]
        mass = sum(map(sum, cells)) or 1.0
        table = [[p / mass for p in row] for row in cells]
        _assert_mi_matches_dense(table)

    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    def test_mutual_information_of_underflowing_tables(self, tiny):
        for table in ([[tiny, 0.0], [0.0, 1.0 - tiny]], [[tiny, 0.0, 0.0], [0.0, 0.5, 0.25], [0.0, 0.0, 0.25]]):
            with pytest.raises(ZeroDivisionError):
                oracle.mutual_information_dense(table)
            _assert_mi_matches_dense(table)

    def test_mutual_information_with_a_cancelled_marginal(self):
        # A negative cell, as in a tampered tree, sums a column to exactly 0.0.
        table = [[0.2, 0.3], [-0.2, 0.7]]
        want = _outcome(oracle.mutual_information_dense, table)
        assert want[0] is ZeroDivisionError
        assert _outcome(mutual_information_bits, table) == want


def _mutual_information_decimal(table) -> float:
    """The mutual information of a dense table in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        cells = [[decimal.Decimal(p) for p in row] for row in table]
        rows = [sum(row, decimal.Decimal(0)) for row in cells]
        cols = [sum(col, decimal.Decimal(0)) for col in zip(*cells)]
        total = decimal.Decimal(0)
        for i, row in enumerate(cells):
            for j, p in enumerate(row):
                if p > 0:
                    total += p * (p / (rows[i] * cols[j])).ln()
        return float(total / decimal.Decimal(2).ln())


def _assert_mi_matches_dense(table) -> None:
    """Bit for bit, except where the dense sum divides by a product of marginals that underflowed."""
    want = _outcome(oracle.mutual_information_dense, table)
    if isinstance(want, tuple) and want[0] is ZeroDivisionError:
        assert abs(mutual_information_bits(table) - _mutual_information_decimal(table)) <= 1e-9
    else:
        assert _outcome(mutual_information_bits, table) == want


def _tamper(rng: random.Random, tree) -> None:
    """Corrupt one node's entropy, one emission cell, or one child's probability."""
    internal = list(tree.internal_nodes())
    kind = rng.randrange(4)
    if kind == 0:
        rng.choice(list(tree.iter_nodes())).entropy_bits += 0.25
    elif kind in (1, 2):
        node = rng.choice(internal)
        i = rng.randrange(len(node.emission))
        j = rng.randrange(len(node.emission[i]))
        row = list(node.emission[i])
        # A positive cell moves the parsed table; a negative one, which no
        # kernel law yields, separates the raw side from the parsed one.
        row[j] = row[j] + 0.3 if kind == 1 else -0.2
        node.emission = node.emission[:i] + (tuple(row),) + node.emission[i + 1:]
    else:
        child = rng.choice(list(rng.choice(internal).children.values()))
        child.prob *= 1.5


class TestTamperedTrees:
    """The audit reads the tree it is handed: a corrupted field fails the same law at the same node."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_same_report_as_oracle(self, rng):
        tree = build_history_tree(*_case(rng, min_horizon=1))
        _tamper(rng, tree)
        assert _outcome(audit_all, tree) == _outcome(oracle.audit_all_dense, tree)

    @pytest.mark.parametrize("field", ["entropy", "emission", "negative emission", "child prob"])
    def test_fails_at_the_corrupted_node(self, arithmetic_scenario, field):
        tree = build_history_tree(arithmetic_scenario, scripted_strategy(helpers.arithmetic_script()), 3)
        assert audit_all(tree).passed
        node = tree.root.children["z_b"]
        if field == "entropy":
            node.entropy_bits += 0.25
        elif field == "emission":
            node.emission = ((0.3,) + node.emission[0][1:],) + node.emission[1:]
        elif field == "negative emission":
            node.emission = node.emission[:1] + ((node.emission[1][0], -0.2, 0.0),) + node.emission[2:]
        else:
            node.children["z_c"].prob *= 1.5  # the child whose entropy is 1 bit
        got, want = audit_all(tree), oracle.audit_all_dense(tree)
        assert got == want
        failed = [v for v in got.verdicts if v.failed]
        assert failed
        assert any(v.witness == ("z_b",) for v in failed)
