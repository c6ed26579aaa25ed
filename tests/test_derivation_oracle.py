"""Differential tests: the one-pass ``derive`` and the distinct-node walks against the parent's recursive code."""

from __future__ import annotations

import dataclasses
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    DerivationTree,
    ExpansionRule,
    curriculum_from_derivation,
    derive,
    validate_curriculum,
    verify_derivation,
)


def _nodes(tree: DerivationTree) -> list[DerivationTree]:
    out = [tree]
    for child in tree.children:
        out.extend(_nodes(child))
    return out


def _replace(tree: DerivationTree, old: DerivationTree, new: DerivationTree) -> DerivationTree:
    """``tree`` with the node object ``old`` replaced by ``new``, keeping the other nodes shared."""
    memo: dict[int, DerivationTree] = {}

    def go(node: DerivationTree) -> DerivationTree:
        if node is old:
            return new
        if id(node) not in memo:
            memo[id(node)] = dataclasses.replace(node, children=tuple(go(c) for c in node.children))
        return memo[id(node)]

    return go(tree)


def _tampered(rng: random.Random, mind, tree: DerivationTree) -> DerivationTree:
    """At one node: a leaf that may lie outside the base, a wrong rule, or a dropped child (an added one at a leaf)."""
    node = rng.choice(_nodes(tree))
    kind = rng.randrange(3)
    if kind == 0:
        return _replace(tree, node, DerivationTree(rng.choice(mind.space.concepts), None))
    if kind == 1:
        foreign = ExpansionRule(frozenset(rng.sample(mind.space.concepts, 1)), node.concept)
        rule = rng.choice(list(mind.rules) + [foreign])
        return _replace(tree, node, dataclasses.replace(node, rule=rule))
    if not node.children:
        return _replace(tree, node, DerivationTree(node.concept, node.rule, (node,)))
    kept = list(node.children)
    kept.pop(rng.randrange(len(kept)))
    return _replace(tree, node, dataclasses.replace(node, children=tuple(kept)))


class TestDerivationMatchesOracle:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_trees_curricula_sizes_and_verdicts(self, rng):
        mind = helpers.random_mind(rng, max_concepts=7, max_rules=12)
        base = mind.axioms if rng.random() < 0.5 else helpers.random_state(rng, mind)
        for concept in mind.space.concepts:
            tree = derive(mind, base, concept)
            assert tree == oracle.derive(mind, base, concept)
            if tree is None:
                continue
            assert curriculum_from_derivation(tree) == oracle.curriculum_from_derivation(tree)
            assert tree.size() == oracle.tree_size(tree)
            assert verify_derivation(mind, base, tree) and oracle.verify_derivation(mind, base, tree)
            for _ in range(3):
                bad = _tampered(rng, mind, tree)
                assert verify_derivation(mind, base, bad) == oracle.verify_derivation(mind, base, bad)
                assert curriculum_from_derivation(bad) == oracle.curriculum_from_derivation(bad)
                assert bad.size() == oracle.tree_size(bad)


class TestDeepDerivations:
    """Depths and path counts the parent's recursive walks could not handle."""

    def test_long_chain(self):
        n = 1000
        concepts = [f"c{i}" for i in range(n)]
        mind = helpers.make_mind(concepts, ["c0"], [([a], b) for a, b in zip(concepts, concepts[1:])])
        tree = derive(mind, mind.axioms, concepts[-1])
        assert tree.size() == n
        assert verify_derivation(mind, mind.axioms, tree)
        curriculum = curriculum_from_derivation(tree)
        assert curriculum.concepts == tuple(concepts[1:])
        assert validate_curriculum(mind, mind.axioms, curriculum)

    def test_stacked_diamonds(self):
        d = 40
        concepts, rules = ["x0"], []
        for k in range(1, d + 1):
            concepts += [f"a{k}", f"b{k}", f"x{k}"]
            rules += [([f"x{k - 1}"], f"a{k}"), ([f"x{k - 1}"], f"b{k}"), ([f"a{k}", f"b{k}"], f"x{k}")]
        mind = helpers.make_mind(concepts, ["x0"], rules)
        tree = derive(mind, mind.axioms, f"x{d}")
        assert tree.size() == 2 ** (d + 2) - 3
        assert verify_derivation(mind, mind.axioms, tree)
        curriculum = curriculum_from_derivation(tree)
        assert len(curriculum) == 3 * d
        assert validate_curriculum(mind, mind.axioms, curriculum)

    def test_ten_thousand_chain_within_budget(self):
        # Past the first layer, each layer tests only the rules needing its new concept.
        n = 10_000
        concepts = [f"c{i}" for i in range(n)]
        mind = helpers.make_mind(concepts, ["c0"], [([a], b) for a, b in zip(concepts, concepts[1:])])
        start = time.perf_counter()
        tree = derive(mind, mind.axioms, concepts[-1])
        assert verify_derivation(mind, mind.axioms, tree)
        elapsed = time.perf_counter() - start
        assert tree.size() == n
        assert elapsed < 1.0
