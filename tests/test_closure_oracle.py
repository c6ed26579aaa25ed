"""Differential tests: the forward-chaining layers against the per-call index, the full-scan iterates and a label-level closure."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import closure_iterates


class TestClosureMatchesOracle:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_closure_mask(self, rng):
        mind = helpers.random_mind(rng, max_concepts=6, max_rules=20)
        space = mind.space
        starts = [mind.axiom_mask, 0, space.full_mask]
        starts += [space.mask(helpers.random_state(rng, mind)) for _ in range(3)]
        targets = [space.bit(rule.target) for rule in mind.rules]
        for _ in range(3):  # sets holding rule targets: rules that fire onto bits already known
            mask = space.mask(helpers.random_state(rng, mind))
            for bit in targets:
                if rng.random() < 0.5:
                    mask |= bit
            starts.append(mask)
        for start in starts:
            assert mind.closure_mask(start) == oracle.closure_mask(mind, start)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_closure_iterates(self, rng):
        mind = helpers.random_mind(rng, max_concepts=7, max_rules=14)
        for state in (mind.axioms, frozenset(), helpers.random_state(rng, mind), helpers.random_state(rng, mind)):
            assert closure_iterates(mind, state) == oracle.closure_iterates(mind, state)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_closure_mask_within(self, rng):
        mind = helpers.random_mind(rng, max_concepts=7, max_rules=14)
        space = mind.space
        for _ in range(4):
            start, within = helpers.random_state(rng, mind), helpers.random_state(rng, mind)
            got = mind.closure_mask(space.mask(start), space.mask(within))
            assert got == space.mask(oracle.closure_within(mind, start, within))
            # the default fires every rule
            assert mind.closure_mask(space.mask(start)) == space.mask(oracle.closure_within(mind, start, space.concepts))
