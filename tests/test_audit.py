from __future__ import annotations

import math
import random

import pytest

import helpers
from noesis import (
    CapExceededError,
    audit_all,
    broadcast_strategy,
    build_history_tree,
    direct_strategy,
    entropy_bits,
    round_mutual_info,
    round_mutual_info_from_joint,
    scripted_strategy,
)
from noesis.audit import AUDIT_TOL


class TestEntropy:
    def test_fixtures(self):
        assert entropy_bits((0.25, 0.25, 0.25, 0.25)) == 2.0
        assert entropy_bits((0.0, 1.0, 0.0)) == 0.0
        assert entropy_bits((0.5, 0.5, 0.0)) == 1.0


class TestBuildHistoryTree:
    def test_full_interaction_three_leaves(self, arithmetic_scenario):
        strategy = scripted_strategy(helpers.arithmetic_script())
        tree = build_history_tree(arithmetic_scenario, strategy, 3)
        leaves = {leaf.history: leaf.prob for leaf in tree.leaves()}
        assert len(leaves) == 3
        for prob in leaves.values():
            assert prob == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert set(leaves) == {
            ("z_b", "z_b", "z_b"),
            ("z_b", "z_c", "z_c"),
            ("z_b", "z_c", "z_d"),
        }

    def test_target_independent_beliefs_stay_at_prior(self, star_scenario):
        strategy = broadcast_strategy(("z_b", "z_1"))
        tree = build_history_tree(star_scenario, strategy, 2)
        for node in tree.iter_nodes():
            assert node.belief == pytest.approx(star_scenario.prior, abs=1e-12)

    def test_star_direct_branching(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        tree = build_history_tree(star_scenario, strategy, 2)
        assert list(tree.root.children) == ["z_b"]
        level1 = tree.root.children["z_b"]
        assert len(level1.children) == 4
        for child in level1.children.values():
            assert child.prob == pytest.approx(0.25, abs=1e-12)

    def test_children_probabilities_sum_to_parent(self):
        rng = random.Random(61)
        for _ in range(30):
            scenario = helpers.random_scenario(rng)
            strategy = direct_strategy(scenario)
            tree = build_history_tree(scenario, strategy, 3)
            assert tree.root.prob == pytest.approx(1.0, abs=1e-12)
            for node in tree.internal_nodes():
                total = sum(child.prob for child in node.children.values())
                assert total == pytest.approx(node.prob, abs=1e-9)

    def test_node_cap(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        with pytest.raises(CapExceededError):
            build_history_tree(star_scenario, strategy, 2, node_cap=3)

    def test_environment_cap_ignored(self, star_scenario, monkeypatch):
        # Only the command line reads NOESIS_NODE_CAP.
        monkeypatch.setenv("NOESIS_NODE_CAP", "2")
        tree = build_history_tree(star_scenario, direct_strategy(star_scenario), 2)
        assert tree.node_count == 6


class TestRoundMutualInfo:
    def test_first_signal_carries_nothing(self, arithmetic_scenario):
        strategy = scripted_strategy(helpers.arithmetic_script())
        tree = build_history_tree(arithmetic_scenario, strategy, 3)
        assert round_mutual_info(tree, tree.root) == pytest.approx(0.0, abs=1e-12)

    def test_split_node_both_routes(self, arithmetic_scenario):
        strategy = scripted_strategy(helpers.arithmetic_script())
        tree = build_history_tree(arithmetic_scenario, strategy, 3)
        node = tree.root.children["z_b"]
        # oracle: after the shared first signal the second one separates the
        # first target from the other two, dropping entropy by
        # H(1/3,1/3,1/3) - (1/3 * 0 + 2/3 * 1)
        expected = entropy_bits((1 / 3, 1 / 3, 1 / 3)) - 2.0 / 3.0
        assert round_mutual_info(tree, node) == pytest.approx(expected, abs=1e-12)
        assert round_mutual_info_from_joint(tree, node) == pytest.approx(
            expected, abs=1e-12
        )

    def test_leaf_rejected(self, arithmetic_scenario):
        strategy = scripted_strategy(helpers.arithmetic_script())
        tree = build_history_tree(arithmetic_scenario, strategy, 1)
        leaf = tree.root.children["z_b"]
        with pytest.raises(ValueError):
            round_mutual_info(tree, leaf)


class TestAuditAll:
    def test_star_direct_all_pass(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        tree = build_history_tree(star_scenario, strategy, 2)
        report = audit_all(tree)
        assert report.passed
        for law in (
            "entropy_drop",
            "supermartingale",
            "statewise_bound",
            "relativity",
            "rephrasing",
            "chain_identity",
            "trajectory_budget",
            "global_bound",
        ):
            assert report[law].verdict == "pass"

    def test_full_interaction_chain_identity(self, arithmetic_scenario):
        strategy = scripted_strategy(helpers.arithmetic_script())
        tree = build_history_tree(arithmetic_scenario, strategy, 3)
        report = audit_all(tree)
        assert report.passed
        # the per-round information totals the prior entropy, log2(3)
        total = sum(
            node.prob * round_mutual_info(tree, node)
            for node in tree.internal_nodes()
        )
        assert total == pytest.approx(math.log2(3.0), abs=1e-9)
        assert report["chain_identity"].verdict == "pass"

    def test_target_independent_strategy(self, star_scenario):
        strategy = broadcast_strategy(("z_b", "z_1"))
        tree = build_history_tree(star_scenario, strategy, 2)
        report = audit_all(tree)
        assert report.passed
        assert report["chain_identity"].verdict == "not applicable"
        assert report["trajectory_budget"].verdict == "not applicable"
        assert report["global_bound"].verdict == "not applicable"
        for node in tree.internal_nodes():
            assert round_mutual_info(tree, node) == pytest.approx(0.0, abs=1e-12)

    def test_rephrasing_round_is_uninformative(self, star_scenario):
        # every second-round token rephrases the same unordered concept
        strategy = scripted_strategy(
            {
                "d1": ("z_1", "z_b"),
                "d2": ("z_1", "z_b"),
                "d3": ("z_2", "z_b"),
                "d4": ("z_2", "z_b"),
            }
        )
        tree = build_history_tree(star_scenario, strategy, 1)
        report = audit_all(tree)
        assert report.passed
        assert round_mutual_info(tree, tree.root) == pytest.approx(0.0, abs=1e-12)

    def test_erasure_event_with_informative_occurrence(self, star_scenario):
        # the unparseable event itself is informative, but within it the
        # observation must carry nothing
        strategy = scripted_strategy(
            {
                "d1": ("z_1",),
                "d2": ("z_2",),
                "d3": ("z_b",),
                "d4": ("z_b",),
            }
        )
        tree = build_history_tree(star_scenario, strategy, 1)
        report = audit_all(tree)
        assert report.passed
        assert round_mutual_info(tree, tree.root) > 0.5  # occurrence separates targets

    def test_random_scenarios_all_strategies(self):
        rng = random.Random(62)
        for _ in range(25):
            scenario = helpers.random_scenario(rng)
            horizon = rng.randint(1, 4)
            strategies = [
                direct_strategy(scenario),
                scripted_strategy(helpers.random_script(rng, scenario, horizon)),
                broadcast_strategy(helpers.random_row(rng, scenario, horizon)),
            ]
            for strategy in strategies:
                tree = build_history_tree(scenario, strategy, horizon)
                report = audit_all(tree)
                assert report.passed, report.lines()

    def test_worst_violations_within_tolerance(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        report = audit_all(build_history_tree(star_scenario, strategy, 2))
        for verdict in report.verdicts:
            if verdict.verdict == "pass":
                assert verdict.worst_violation <= AUDIT_TOL
