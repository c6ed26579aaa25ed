from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from noesis import (
    CapExceededError,
    ConceptSpace,
    Mind,
    NotLearningSpaceError,
    UnknownConceptError,
    UnreachableConceptError,
    canonical_rules,
    check_learning_space,
    enumerate_reachable,
    shortest_chain,
    structural_distance,
    understanding_horizon,
)


class TestEnumerateReachable:
    def test_diamond_family(self, diamond):
        family = enumerate_reachable(diamond)
        assert family.states() == [
            {"a"},
            {"a", "b"},
            {"a", "c"},
            {"a", "b", "c"},
            {"a", "b", "c", "d"},
        ]
        assert family.minimum == {"a"}
        assert family.maximum == {"a", "b", "c", "d"}
        assert {"a", "b", "d"} not in family
        assert family.addable({"a"}) == {"b", "c"}
        assert family.addable({"a", "b", "c"}) == {"d"}

    def test_mind1_is_a_chain(self, mind1):
        family = enumerate_reachable(mind1)
        assert family.states() == [
            {"a"},
            {"a", "b"},
            {"a", "b", "c"},
            {"a", "b", "c", "d"},
        ]
        # oracle: a subset is reachable iff a one-concept-at-a-time chain
        # exists, checked by exhaustive search over all subsets
        assert set(family.states()) == _reachable_by_exhaustion(mind1)

    def test_label_set_outside_the_space_is_not_a_member(self, diamond):
        family = enumerate_reachable(diamond)
        assert frozenset({"zz"}) not in family
        assert {"a", "zz"} not in family
        assert {"a", 1} not in family
        assert "a" not in family
        assert {"a"} in family
        with pytest.raises(UnknownConceptError):
            family.addable({"a", "zz"})
        with pytest.raises(KeyError, match="not reachable"):
            family.addable({"b"})

    def test_label_iterables_are_read_as_sets(self, diamond):
        family = enumerate_reachable(diamond)
        assert ["a"] in family
        assert ("a", "b") in family
        assert ["b", "a", "b"] in family
        assert (c for c in ["a", "c"]) in family
        assert diamond.space.mask({"a", "b"}) in family
        assert ["a", "d"] not in family
        assert ["a", "zz"] not in family
        assert ("a", 1) not in family
        assert ["a", ["b"]] not in family
        assert "a" not in family
        assert None not in family

    def test_addable_refuses_a_string(self):
        # A str would be read as one-character labels: "ax1" as a, x, 1.
        family = enumerate_reachable(helpers.make_mind(["a", "x1", "x2"], "a", [("a", "x1"), ("a", "x2")]))
        for state in ("ax1", "a", "x1"):
            with pytest.raises(TypeError, match="not a str"):
                family.addable(state)
            assert state not in family
        assert family.addable(["a"]) == {"x1", "x2"}

    def test_addable_reads_a_one_shot_iterable_once(self, diamond):
        family = enumerate_reachable(diamond)
        assert family.addable(c for c in ["a"]) == {"b", "c"}
        with pytest.raises(KeyError, match=r"state \['a', 'd'\] is not reachable"):
            family.addable(c for c in ["d", "a"])

    def test_no_rules_single_state(self):
        mind = helpers.make_mind("ab", "a", [])
        family = enumerate_reachable(mind)
        assert family.states() == [{"a"}]

    def test_cap_enforced(self, diamond):
        with pytest.raises(CapExceededError):
            enumerate_reachable(diamond, cap=3)

    def test_cap_counts_the_axiom_state(self):
        # A rule-less family is its axioms alone: one state, which a cap of 0 refuses.
        mind = helpers.make_mind("ab", "a", [])
        with pytest.raises(CapExceededError, match=r"^reachable family exceeds 0 states$"):
            enumerate_reachable(mind, cap=0)
        assert len(enumerate_reachable(mind, cap=1)) == 1

    def test_environment_cap_ignored(self, diamond, monkeypatch):
        # Only the command line reads NOESIS_NODE_CAP.
        monkeypatch.setenv("NOESIS_NODE_CAP", "2")
        assert len(enumerate_reachable(diamond)) == 5

    def test_maximum_is_horizon_property(self):
        rng = random.Random(31)
        for _ in range(80):
            mind = helpers.random_mind(rng)
            family = enumerate_reachable(mind)
            assert family.maximum == understanding_horizon(mind)


def _reachable_by_exhaustion(mind) -> set[frozenset[str]]:
    space = mind.space
    reachable = {space.labels(mind.axiom_mask)}
    grew = True
    while grew:
        grew = False
        for state in sorted(reachable, key=sorted):
            mask = space.mask(state)
            for concept in space.concepts:
                bit = space.bit(concept)
                if not mask & bit and mind.expand_mask(mask) & bit:
                    nxt = space.labels(mask | bit)
                    if nxt not in reachable:
                        reachable.add(nxt)
                        grew = True
    return reachable


class TestCheckLearningSpace:
    def test_diamond_passes(self, diamond):
        report = check_learning_space(enumerate_reachable(diamond), {"a"})
        assert report.has_axiom_floor and report.accessible and report.union_closed
        assert report.shifted_antimatroid
        assert report.passed

    def test_union_closed_but_inaccessible(self):
        report = check_learning_space([frozenset(), frozenset({"a", "b"})], frozenset())
        assert report.union_closed
        assert not report.accessible
        assert not report.shifted_antimatroid
        assert not report.passed

    def test_singleton_family(self):
        report = check_learning_space([frozenset({"a"})], {"a"})
        assert report.passed and report.shifted_antimatroid

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_reachable_families_are_learning_spaces(self, rng):
        # reach prints these four flags as true without checking them
        # (enumerate_reachable's docstring has the proof); this keeps them
        # honest.  The minds include empty axioms, several rules for one
        # target and rules whose prerequisites are all axioms.
        mind = helpers.random_mind(rng, max_concepts=8, max_rules=16)
        report = check_learning_space(enumerate_reachable(mind), mind.axioms)
        assert report.has_axiom_floor and report.accessible and report.union_closed
        assert report.shifted_antimatroid


class TestCanonicalRules:
    def test_round_trip_diamond(self, diamond):
        family = enumerate_reachable(diamond)
        rules = canonical_rules(family, diamond.space, diamond.axioms)
        rebuilt = Mind(space=diamond.space, axioms=diamond.axioms, rules=rules)
        assert set(enumerate_reachable(rebuilt).states()) == set(family.states())

    def test_trivial_family_has_no_rules(self):
        space = ConceptSpace(("a", "b"))
        assert canonical_rules([frozenset({"a"})], space, {"a"}) == ()

    def test_all_supersets_family(self):
        space = ConceptSpace(("a", "b", "c"))
        axioms = frozenset({"a"})
        family = [
            frozenset({"a"}) | frozenset(extra)
            for extra in ((), ("b",), ("c",), ("b", "c"))
        ]
        rules = canonical_rules(family, space, axioms)
        rebuilt = Mind(space=space, axioms=axioms, rules=rules)
        assert set(enumerate_reachable(rebuilt).states()) == set(family)

    def test_rejects_non_learning_space(self):
        space = ConceptSpace(("a", "b"))
        with pytest.raises(NotLearningSpaceError):
            canonical_rules([frozenset(), frozenset({"a", "b"})], space, frozenset())

    def test_round_trip_random(self):
        rng = random.Random(33)
        for _ in range(120):
            mind = helpers.random_mind(rng)
            family = enumerate_reachable(mind)
            rules = canonical_rules(family, mind.space, mind.axioms)
            rebuilt = Mind(space=mind.space, axioms=mind.axioms, rules=rules)
            assert set(enumerate_reachable(rebuilt).states()) == set(family.states())


class TestDistancesAndChains:
    def test_star_distances(self, star):
        assert structural_distance(star, "d1") == 2
        assert structural_distance(star, "a") == 0
        assert shortest_chain(star, "d1") == ({"a"}, {"a", "b"}, {"a", "b", "d1"})

    def test_mind_fixture_distances(self, mind1, mind2):
        assert structural_distance(mind1, "d") == 3
        assert shortest_chain(mind2, "d") == (
            {"a"},
            {"a", "c"},
            {"a", "b", "c"},
            {"a", "b", "c", "d"},
        )

    def test_unreachable(self, mind1):
        mind = helpers.make_mind("abcde", "a", [("a", "b"), ("b", "c"), ("bc", "d")])
        assert structural_distance(mind, "e") is None
        with pytest.raises(UnreachableConceptError):
            shortest_chain(mind, "e")
        with pytest.raises(UnknownConceptError):
            structural_distance(mind1, "zz")

    def test_axiom_chain_is_trivial(self, star):
        assert shortest_chain(star, "a") == ({"a"},)

    def test_distance_matches_exhaustive_search(self):
        rng = random.Random(34)
        for _ in range(60):
            mind = helpers.random_mind(rng, max_concepts=5)
            reachable = _reachable_by_exhaustion(mind)
            for concept in mind.space.concepts:
                best = [
                    len(s) - len(mind.axioms) for s in reachable if concept in s
                ]
                expected = min(best) if best else None
                assert structural_distance(mind, concept) == expected
                if expected is not None:
                    chain = shortest_chain(mind, concept)
                    assert len(chain) - 1 == expected
                    assert chain[0] == mind.axioms
                    assert concept in chain[-1]
                    for before, after in zip(chain, chain[1:]):
                        assert before < after and len(after - before) == 1
                        assert after in reachable

    def test_prefixes_of_chains_are_reachable(self):
        rng = random.Random(35)
        for _ in range(60):
            mind = helpers.random_mind(rng)
            family = enumerate_reachable(mind)
            for concept in sorted(understanding_horizon(mind)):
                for state in shortest_chain(mind, concept):
                    assert state in family

    def test_distance_bounded_by_non_axioms(self):
        rng = random.Random(36)
        for _ in range(60):
            mind = helpers.random_mind(rng)
            horizon = understanding_horizon(mind)
            for concept in sorted(horizon):
                dist = structural_distance(mind, concept)
                assert dist is not None
                assert dist <= len(horizon - mind.axioms)
