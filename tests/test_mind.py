from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    CapExceededError,
    ClosureAxiomError,
    ConceptSpace,
    ExpansionRule,
    InvalidMindError,
    Mind,
    Scenario,
    SignalSystem,
    UnknownConceptError,
    broadcast_construct,
    broadcast_min_length,
    closure,
    closure_iterates,
    direct_strategy,
    enumerate_reachable,
    is_ordered,
    load_mind,
    max_capacity,
    one_step_expansion,
    run_episode,
    rules_from_closure,
    structural_distance,
    understanding_horizon,
    validate_mind,
)
from noesis.mind import _frozen
from noesis.teaching import Round


@st.composite
def small_minds(draw, max_concepts=5, max_rules=8):
    n = draw(st.integers(1, max_concepts))
    labels = tuple(f"c{i}" for i in range(n))
    axioms = draw(st.frozensets(st.sampled_from(labels), max_size=n))
    rules = set()
    for _ in range(draw(st.integers(0, max_rules))):
        target = draw(st.sampled_from(labels))
        rest = tuple(l for l in labels if l != target)
        if rest:
            prereqs = draw(st.frozensets(st.sampled_from(rest), max_size=min(3, len(rest))))
        else:
            prereqs = frozenset()
        rules.add(ExpansionRule(prereqs, target))
    return Mind(space=ConceptSpace(labels), axioms=axioms, rules=tuple(rules))


@st.composite
def mind_and_state(draw):
    mind = draw(small_minds())
    state = draw(st.frozensets(st.sampled_from(mind.space.concepts), max_size=len(mind.space)))
    return mind, state


class TestConceptSpace:
    def test_rejects_empty(self):
        with pytest.raises(InvalidMindError):
            ConceptSpace(())

    def test_rejects_duplicates_and_whitespace(self):
        with pytest.raises(InvalidMindError):
            ConceptSpace(("a", "a"))
        with pytest.raises(InvalidMindError):
            ConceptSpace(("a", "b c"))
        with pytest.raises(InvalidMindError):
            ConceptSpace(("a", ""))

    def test_every_whitespace_character_rejected(self):
        # The fast label test splits the joined labels; it must agree with str.isspace.
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert len(spaces) > 20
        for ch in spaces:
            with pytest.raises(InvalidMindError, match="concept label must be"):
                ConceptSpace(("a", f"b{ch}c"))
            with pytest.raises(InvalidMindError, match="bad signal token"):
                SignalSystem(("t", f"u{ch}"), ("a", "a"))

    def test_mask_labels_round_trip(self):
        space = ConceptSpace(("a", "b", "c"))
        assert space.labels(space.mask({"c", "a"})) == frozenset({"a", "c"})
        with pytest.raises(UnknownConceptError):
            space.mask({"z"})


class TestValidateMind:
    def test_accepts_reference_mind(self, mind1):
        report = validate_mind(mind1)
        assert report.accepted
        assert report.summary() == "accepted"

    def test_unknown_concept_in_rule(self):
        mind = Mind(
            space=ConceptSpace(("a", "y")),
            axioms=frozenset("a"),
            rules=(ExpansionRule(frozenset({"x"}), "y"),),
        )
        report = validate_mind(mind)
        assert not report.accepted
        assert report.unknown_concepts == ((0, "x"),)
        with pytest.raises(InvalidMindError):
            closure(mind, {"a"})

    def test_degenerate_rule(self):
        mind = Mind(
            space=ConceptSpace(("a", "b")),
            axioms=frozenset("a"),
            rules=(ExpansionRule(frozenset({"b"}), "b"),),
        )
        report = validate_mind(mind)
        assert report.degenerate_rules == (0,)
        assert not report.accepted

    def test_duplicate_rule_and_stray_axiom(self):
        rule = ExpansionRule(frozenset({"a"}), "b")
        mind = Mind(
            space=ConceptSpace(("a", "b")),
            axioms=frozenset({"a", "q"}),
            rules=(rule, rule),
        )
        report = validate_mind(mind)
        assert report.duplicate_rules == (1,)
        assert report.axioms_outside_space == ("q",)


class TestExpansionAndClosure:
    def test_one_step_fixture(self, mind1):
        assert one_step_expansion(mind1, {"a"}) == {"a", "b"}
        assert one_step_expansion(mind1, {"a", "b"}) == {"a", "b", "c"}

    def test_one_step_no_rules_is_identity(self):
        mind = helpers.make_mind("ab", "a", [])
        assert one_step_expansion(mind, {"b"}) == {"b"}

    def test_closure_fixture(self, mind1):
        assert closure(mind1, {"a"}) == {"a", "b", "c", "d"}
        assert closure_iterates(mind1, {"a"}) == [
            {"a"},
            {"a", "b"},
            {"a", "b", "c"},
            {"a", "b", "c", "d"},
        ]

    def test_closure_stalls_without_prereqs(self, mind1):
        assert closure(mind1, {"c"}) == {"c"}
        # brute-force least fixed point containing {c} over all supersets
        space = mind1.space
        fixed = [
            m
            for m in range(1 << len(space))
            if m & space.mask({"c"}) == space.mask({"c"}) and mind1.expand_mask(m) == m
        ]
        least = min(fixed, key=lambda m: m.bit_count())
        assert space.labels(least) == {"c"}

    def test_unknown_concept_rejected(self, mind1):
        with pytest.raises(UnknownConceptError):
            closure(mind1, {"nope"})

    def test_horizon_fixtures(self, mind1, mind2, star):
        assert understanding_horizon(mind1) == {"a", "b", "c", "d"}
        assert understanding_horizon(mind2) == {"a", "b", "c", "d"}
        assert understanding_horizon(star) == {"a", "b", "d1", "d2", "d3", "d4"}
        assert understanding_horizon(helpers.make_mind("ab", "a", [])) == {"a"}

    def test_horizon_is_computed_once_per_mind(self, monkeypatch):
        original = Mind.closure_mask
        starts = []

        def counted(self, start):
            starts.append(start)
            return original(self, start)

        monkeypatch.setattr(Mind, "closure_mask", counted)
        mind, system = helpers.star(), helpers.star_system()
        scenario = Scenario(mind=mind, system=system, targets=("d1", "d2"), prior=(0.5, 0.5))
        direct_strategy(scenario)
        max_capacity(mind, system)
        assert understanding_horizon(mind) == enumerate_reachable(mind).horizon
        assert structural_distance(mind, "d3") == 2
        assert starts.count(mind.axiom_mask) == 1

    def test_iterates_make_no_full_rule_scan(self, monkeypatch):
        # The iterates come from the closure's counters, not from one full rule scan per iterate.
        calls = []
        original = Mind.expand_mask
        monkeypatch.setattr(Mind, "expand_mask", lambda self, mask: calls.append(mask) or original(self, mask))
        n = 3000
        concepts = [f"c{i}" for i in range(n)]
        mind = helpers.make_mind(concepts, ["c0"], [([a], b) for a, b in zip(concepts, concepts[1:])])
        iterates = closure_iterates(mind, {"c0"})
        assert len(iterates) == n and len(iterates[-1]) == n
        assert calls == []

    def test_empty_prereq_rules_fire_everywhere(self):
        mind = helpers.make_mind("ab", "", [((), "a")])
        assert one_step_expansion(mind, set()) == {"a"}
        assert closure(mind, {"b"}) == {"a", "b"}

    def test_is_ordered(self, mind1):
        assert is_ordered(mind1, {"a"}, "b")
        assert not is_ordered(mind1, {"a"}, "d")
        assert is_ordered(mind1, {"d"}, "d")  # already known


class TestClosureProperties:
    @given(mind_and_state())
    @settings(max_examples=80, deadline=None)
    def test_extensive_idempotent(self, case):
        mind, state = case
        expanded = one_step_expansion(mind, state)
        assert state <= expanded
        closed = closure(mind, state)
        assert state <= closed
        assert closure(mind, closed) == closed

    @given(mind_and_state(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_monotone(self, case, rnd):
        mind, small = case
        extra = {c for c in mind.space.concepts if rnd.random() < 0.3}
        big = small | extra
        assert one_step_expansion(mind, small) <= one_step_expansion(mind, big)
        assert closure(mind, small) <= closure(mind, big)

    @given(mind_and_state())
    @settings(max_examples=80, deadline=None)
    def test_worklist_matches_naive_iteration(self, case):
        mind, state = case
        assert closure(mind, state) == oracle.closure_iterates(mind, state)[-1]

    @given(mind_and_state())
    @settings(max_examples=80, deadline=None)
    def test_termination_within_space_size(self, case):
        mind, state = case
        assert len(closure_iterates(mind, state)) - 1 <= len(mind.space)

    @given(small_minds())
    @settings(max_examples=60, deadline=None)
    def test_horizon_minimality(self, mind):
        # the horizon contains the axioms, is closed under the rules, and
        # sits inside every other subset with those two properties
        space = mind.space
        horizon = space.mask(understanding_horizon(mind))
        axioms = space.mask(mind.axioms)
        candidates = [
            m
            for m in range(1 << len(space))
            if m & axioms == axioms and mind.expand_mask(m) == m
        ]
        assert horizon in candidates
        assert all(horizon & ~m == 0 for m in candidates)

    def test_directed_union_continuity_on_chains(self):
        rng = random.Random(20)
        for _ in range(100):
            mind = helpers.random_mind(rng)
            chain = [helpers.random_state(rng, mind)]
            for _ in range(rng.randint(0, 4)):
                chain.append(chain[-1] | helpers.random_state(rng, mind))
            union = frozenset().union(*chain)
            expanded_union = one_step_expansion(mind, union)
            pieces = frozenset().union(*(one_step_expansion(mind, k) for k in chain))
            assert expanded_union == pieces


class TestClosureWithoutLayers:
    def test_closure_reads_no_layer(self, monkeypatch):
        # closure_mask is its own worklist; the per-layer walk serves only the iterates and derive.
        def refuse(*args):
            raise AssertionError("the closure walked the layers")

        rng = random.Random(27)
        minds = [helpers.random_mind(rng, max_concepts=7, max_rules=14) for _ in range(100)]
        monkeypatch.setattr(Mind, "_layers", refuse)
        for mind in minds:
            space = mind.space
            start, within = helpers.random_state(rng, mind), helpers.random_state(rng, mind)
            assert mind.horizon_mask == oracle.closure_mask(mind, mind.axiom_mask)
            assert mind.closure_mask(space.mask(start)) == oracle.closure_mask(mind, space.mask(start))
            got = mind.closure_mask(space.mask(start), space.mask(within))
            assert got == space.mask(oracle.closure_within(mind, start, within))
        instance = broadcast_construct(3, 3)
        assert broadcast_min_length(instance) == oracle.broadcast_min_length(instance) == 7


class TestFrozenConstructor:
    def test_matches_the_dataclass_constructor(self, fixtures_dir, star_scenario):
        trace = run_episode(star_scenario, direct_strategy(star_scenario), 4, seed=3)
        made = [*trace.rounds, *load_mind(fixtures_dir / "arithmetic.mind").rules]
        made.append(_frozen(ExpansionRule, prereqs=frozenset({"a", "b"}), target="c"))
        assert {type(m) for m in made} == {Round, ExpansionRule}
        for m in made:
            built = type(m)(**vars(m))
            assert m == built and built == m
            assert hash(m) == hash(built)
            assert repr(m) == repr(built)
            assert list(vars(m)) == [f.name for f in dataclasses.fields(m)]
            with pytest.raises(dataclasses.FrozenInstanceError):
                m.target = "x"


class TestRulesFromClosure:
    def test_round_trip_mind1(self, mind1):
        space = mind1.space
        rules = rules_from_closure(space, lambda s: closure(mind1, s))
        rebuilt = Mind(space=space, axioms=mind1.axioms, rules=rules)
        for m in range(1 << len(space)):
            state = space.labels(m)
            assert closure(rebuilt, state) == closure(mind1, state)

    def test_identity_oracle_gives_no_effective_rules(self):
        space = ConceptSpace(("a", "b"))
        assert rules_from_closure(space, lambda s: s) == ()

    def test_constant_oracle(self):
        space = ConceptSpace(("a", "b", "c"))
        full = frozenset(space.concepts)
        rules = rules_from_closure(space, lambda s: full)
        for c in space.concepts:
            assert ExpansionRule(frozenset(), c) in rules
        rebuilt = Mind(space=space, axioms=frozenset(), rules=rules)
        for m in range(1 << len(space)):
            assert closure(rebuilt, space.labels(m)) == full

    def test_non_monotone_oracle_rejected(self):
        space = ConceptSpace(("a", "b"))

        def oracle(s):
            return frozenset({"a", "b"}) if not s else frozenset(s)

        with pytest.raises(ClosureAxiomError):
            rules_from_closure(space, oracle)

    def test_non_idempotent_oracle_rejected(self):
        space = ConceptSpace(("a", "b", "c"))
        order = {"a": "b", "b": "c", "c": "c"}

        def oracle(s):
            return frozenset(s) | {order[x] for x in s}

        with pytest.raises(ClosureAxiomError):
            rules_from_closure(space, oracle)

    def test_space_cap(self):
        space = ConceptSpace(tuple(f"c{i}" for i in range(13)))
        with pytest.raises(CapExceededError):
            rules_from_closure(space, lambda s: s)

    def test_finitariness_witnesses(self):
        rng = random.Random(7)
        for _ in range(60):
            mind = helpers.random_mind(rng, max_concepts=5)
            state = helpers.random_state(rng, mind)
            closed = closure(mind, state)
            for concept in closed:
                witness = _minimal_witness(mind, state, concept)
                assert witness is not None and witness <= state
                assert concept in closure(mind, witness)


def _minimal_witness(mind, state, concept):
    """Smallest subset of ``state`` whose closure still contains ``concept``."""
    members = sorted(state)
    for size in range(len(members) + 1):
        from itertools import combinations

        for combo in combinations(members, size):
            if concept in closure(mind, frozenset(combo)):
                return frozenset(combo)
    return None
