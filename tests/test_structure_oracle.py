"""Differential tests: the mask-level learning-space check and the horizon
capacity against the frozenset check and the per-state capacity scan, the
reachable family, which reads its moves off its states, against the
enumeration that stored them, and the family's sort by rank keys and byte
tables against the sort of label tuples."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    CapExceededError,
    ConceptSpace,
    ExpansionRule,
    Mind,
    Scenario,
    SignalSystem,
    audit_all,
    build_history_tree,
    check_learning_space,
    direct_strategy,
    entropy_bits,
    enumerate_reachable,
    max_capacity,
)

LABELS = tuple("abcdef")


def _union_closure(family: set[frozenset[str]]) -> set[frozenset[str]]:
    closed = set(family)
    while True:
        more = {a | b for a, b in itertools.combinations(closed, 2)} - closed
        if not more:
            return closed
        closed |= more


def _grown(rng: random.Random, labels, base: frozenset[str]) -> set[frozenset[str]]:
    """An accessible family: each new state adds one label to an earlier one."""
    family = {base}
    for _ in range(rng.randint(0, 24)):
        state = rng.choice(sorted(family, key=sorted))
        missing = [x for x in labels if x not in state]
        if missing:
            family.add(state | {rng.choice(missing)})
    if rng.random() < 0.4:
        family = _union_closure(family)  # the union of accessible states is accessible
    return family


def _arbitrary(rng: random.Random, labels) -> set[frozenset[str]]:
    p = rng.random()
    return {
        frozenset(itertools.compress(labels, bits))
        for bits in itertools.product((0, 1), repeat=len(labels))
        if rng.random() < p
    }


def _label_case(rng: random.Random):
    """A family of label sets over at most six labels, and an axiom set."""
    labels = LABELS[: rng.randint(1, len(LABELS))]
    base = frozenset(rng.sample(labels, rng.randint(0, min(2, len(labels)))))
    kind = rng.choice(("empty", "grown", "arbitrary", "no floor"))
    if kind == "empty":
        family: set[frozenset[str]] = set()
    elif kind == "grown":
        family = _grown(rng, labels, base)
    elif kind == "arbitrary":
        family = _arbitrary(rng, labels)
    else:
        family = _grown(rng, labels, base)
        family.discard(base)
        if rng.random() < 0.5:
            base = base | {"z"}  # an axiom no state contains
    return list(family), base


class TestLearningSpaceCheckMatchesOracle:
    def test_empty_family(self):
        for axioms in (frozenset(), frozenset({"a"})):
            assert check_learning_space([], axioms) == oracle.check_learning_space([], axioms)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=400, deadline=None)
    def test_label_set_families(self, rng):
        family, axioms = _label_case(rng)
        assert check_learning_space(family, axioms) == oracle.check_learning_space(
            family, axioms
        )

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_reachable_families(self, rng):
        mind = helpers.random_mind(rng)
        family = enumerate_reachable(mind)
        concepts = mind.space.concepts
        for axioms in (
            mind.axioms,
            frozenset(rng.sample(concepts, rng.randint(0, min(2, len(concepts))))),
            mind.axioms | {"z"},
        ):
            assert check_learning_space(family, axioms) == oracle.check_learning_space(
                family, axioms
            )


def _family_or_cap_error(enumerate_fn, mind: Mind, cap: int):
    """The family's size, or the message of the cap error it raises."""
    try:
        return len(enumerate_fn(mind, cap=cap))
    except CapExceededError as exc:
        return str(exc)


class TestReachableFamilyMatchesOracle:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_states_moves_and_cap(self, rng):
        mind = helpers.random_mind(rng, max_concepts=7)
        family, want = enumerate_reachable(mind), oracle.enumerate_reachable(mind)
        assert family.state_masks == want.state_masks
        assert (family.axioms, family.horizon) == (want.axioms, want.horizon)
        for mask in family.state_masks:
            state = mind.space.labels(mask)
            assert family.addable(state) == want.addable(state)
        for mask in range(mind.space.full_mask + 1):  # unreachable states raise in both
            if mask not in want.state_masks:
                state = mind.space.labels(mask)
                with pytest.raises(KeyError):
                    family.addable(state)
                with pytest.raises(KeyError):
                    want.addable(state)
        for cap in range(len(want) + 2):
            assert _family_or_cap_error(enumerate_reachable, mind, cap) == _family_or_cap_error(
                oracle.enumerate_reachable, mind, cap
            )

    def test_expansions_match_oracle_at_every_cap(self, monkeypatch):
        # Each expansion is recorded as the state it expands, whether in
        # full or grown from the parent's.
        calls = []
        original_full, original_add = Mind.expand_mask, Mind.expand_add

        def counted_full(mind, mask):
            calls.append(mask)
            return original_full(mind, mask)

        def counted_add(mind, expanded, mask, bit):
            calls.append(mask | bit)
            return original_add(mind, expanded, mask, bit)

        monkeypatch.setattr(Mind, "expand_mask", counted_full)
        monkeypatch.setattr(Mind, "expand_add", counted_add)
        rng = random.Random(11)
        for _ in range(60):
            mind = helpers.random_mind(rng, max_concepts=7)
            for cap in range(len(oracle.enumerate_reachable(mind)) + 2):
                calls.clear()
                got = _family_or_cap_error(enumerate_reachable, mind, cap)
                got_calls = list(calls)
                calls.clear()
                assert got == _family_or_cap_error(oracle.enumerate_reachable, mind, cap)
                assert got_calls == calls


def _labels(rng: random.Random) -> list[str]:
    """1 to 20 distinct short labels over a few letters, some non-ASCII, in random order.

    Short labels over few letters make some labels prefixes of others
    ("a", "ab"), and the random order differs from code-point order.
    """
    n = rng.randint(1, 20)
    labels: dict[str, None] = {}
    while len(labels) < n:
        labels["".join(rng.choices("abZé日Ω", k=rng.randint(1, 3)))] = None
    return list(labels)


class TestSortedLabelTuplesMatchOracle:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_random_minds(self, rng):
        space = ConceptSpace(tuple(_labels(rng)))
        family = enumerate_reachable(helpers.random_mind(rng, max_rules=12, space=space))
        want = oracle.sorted_label_tuples(family)
        assert family.sorted_label_tuples() == want
        assert family.states() == [frozenset(t) for t in want]

    def test_empty_state_alone(self):
        mind = helpers.make_mind(("é", "a", "ab"), (), [])
        family = enumerate_reachable(mind)
        assert family.sorted_label_tuples() == oracle.sorted_label_tuples(family) == [()]

    def test_chain_of_two_thousand(self):
        labels = tuple(f"c{i}" for i in range(2000))
        rules = tuple(ExpansionRule(frozenset({a}), b) for a, b in zip(labels, labels[1:]))
        family = enumerate_reachable(Mind(ConceptSpace(labels), frozenset({"c0"}), rules))
        # The states are the prefixes of the chain; sorted label tuples put c10 before c2.
        assert family.sorted_label_tuples() == [
            tuple(sorted(labels[: k + 1])) for k in range(len(labels))
        ]


class TestHorizonCapacityMatchesOracle:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_max_capacity(self, rng):
        mind = helpers.random_mind(rng)
        system = helpers.random_system(rng, mind)
        family = enumerate_reachable(mind)
        assert max_capacity(mind, system) == oracle.max_capacity(mind, system, family)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_audit_global_bound(self, rng):
        scenario = helpers.random_scenario(rng, max_concepts=5, max_tokens=5)
        _assert_global_bound_matches_oracle(scenario, rng.randint(1, 4))

    def test_audit_global_bound_set_by_capacity(self):
        # Known targets: the depth term is 0 and the entropy over the
        # capacity decides; c and d are unordered at the axioms.
        axioms = ("a1", "a2", "a3", "a4")
        mind = helpers.make_mind(
            axioms + ("b", "c", "d"), axioms, [(("a1",), "b"), ("b", "c"), ("b", "d")]
        )
        scenario = Scenario(
            mind=mind,
            system=SignalSystem.from_pairs((f"z_{c}", c) for c in mind.space.concepts),
            targets=axioms,
            prior=(0.25,) * 4,
        )
        _assert_global_bound_matches_oracle(scenario, 2)


def _assert_global_bound_matches_oracle(scenario, horizon: int) -> None:
    """The audit's global floor equals the one built on the per-state capacity scan."""
    tree = build_history_tree(scenario, direct_strategy(scenario), horizon)
    verdict = audit_all(tree)["global_bound"]
    tau = oracle.expected_completion_time_recursive(tree, scenario)
    if tau is None:
        assert verdict.verdict == "not applicable"
        return
    mind = scenario.mind
    floor = sum(
        w * oracle.structural_distance(mind, t) for t, w in zip(scenario.targets, scenario.prior)
    )
    cap = oracle.max_capacity(mind, scenario.system, enumerate_reachable(mind))
    if cap > 0.0:
        floor = max(floor, entropy_bits(scenario.prior) / cap)
    assert verdict.worst_violation == pytest.approx(floor - tau, abs=1e-12)
