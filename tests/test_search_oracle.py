"""The planner's searches against the searches they replaced.

``exact_value_tiny`` searches each ``(state, live targets, rounds left)``
node once, with one ``Scenario.view`` call for its outcomes and a max
over one cached table of maps from the live targets to the outcomes.
It values a lone acquired target and a block in the last round in
closed form, so at every horizon from 0 to 3 it is entered only at the
nodes it expands.  ``broadcast_min_length`` is an A* search that
expands each state of each mind once.  The oracles in ``oracle.py``
expand afresh at every history, try every token assignment at each
node, maximize over set partitions times injective labellings, enter
the search at every child of a node, and search breadth-first at
every product state.  ``broadcast_check`` grows each mind's expansion
beside its state; the oracle tests each token against each mind's rules
label by label.  Values must match exactly, the CLI bytes must not
move, and the work counts must fall.  The exact search's caps fire
where the oracle's do; the A* search stores other product states than
the breadth-first one, so its cap has its own threshold, never above
the oracle's on the broadcast construction.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    CapExceededError,
    ExpansionRule,
    Mind,
    Scenario,
    SignalSystem,
    broadcast_check,
    broadcast_construct,
    broadcast_min_length,
    enumerate_reachable,
    exact_value_tiny,
)
from noesis import cli, planner
from noesis.cli import run_cli

# --- exact value -------------------------------------------------------------


@given(st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_exact_value_is_bit_identical(rng):
    scenario = helpers.some_zero_prior(rng, helpers.random_tiny_scenario(rng))
    for t in range(4):
        got = exact_value_tiny(scenario, t)
        assert got == oracle.exact_value_memoized(scenario, t)
        assert got == oracle.exact_value_per_history(scenario, t)
        assert got == oracle.exact_value_partitions(scenario, t)
        assert got == oracle.exact_value_labelled(scenario, t)


def _tiny_with_synonyms(rng: random.Random) -> Scenario:
    """A tiny scenario whose spare tokens rephrase a target or name an axiom or any concept.

    It keeps one or two targets, so the alphabet can grow to the cap of
    three tokens; the tokens come in shuffled order.
    """
    base = helpers.random_tiny_scenario(rng)
    n = rng.randint(1, min(2, len(base.targets)))
    targets = base.targets[:n]
    pairs = [(f"z_{c}", c) for c in targets]
    pool = list(targets) + sorted(base.mind.axioms) + list(base.mind.space.concepts)
    for _ in range(rng.randint(1, 3 - n)):
        c = rng.choice(pool)
        pairs.append((f"r{len(pairs)}_{c}", c))
    rng.shuffle(pairs)
    total = sum(base.prior[:n])
    prior = tuple(p / total for p in base.prior[:n])
    return Scenario(mind=base.mind, system=SignalSystem.from_pairs(pairs), targets=targets, prior=prior)


@given(st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_exact_value_with_synonyms_is_bit_identical(rng):
    # Rephrasings give one child mask to several outcomes, and a known
    # concept's token parses and changes nothing.
    scenario = helpers.some_zero_prior(rng, _tiny_with_synonyms(rng))
    for t in range(4):
        got = exact_value_tiny(scenario, t)
        assert got == oracle.exact_value_memoized(scenario, t)
        assert got == oracle.exact_value_per_history(scenario, t)
        assert got == oracle.exact_value_partitions(scenario, t)
        assert got == oracle.exact_value_labelled(scenario, t)


@pytest.mark.parametrize("n, c", [(n, c) for n in range(4) for c in range(1, 5)])
def test_labelled_partitions_are_the_maps_to_outcomes(n, c):
    table = planner._labelled_partitions(n, c)
    assert len(table) == c**n
    maps = set()
    for blocks in table:
        positions = [p for block, _ in blocks for p in block]
        labels = [label for _, label in blocks]
        assert sorted(positions) == list(range(n))
        assert len(set(labels)) == len(labels) and all(0 <= k < c for k in labels)
        assert all(block == tuple(sorted(block)) for block, _ in blocks)
        least = [block[0] for block, _ in blocks]
        assert least == sorted(least)
        maps.add(tuple(sorted((p, label) for block, label in blocks for p in block)))
    assert len(maps) == c**n


def test_outcomes_with_one_child_mask_stay_apart():
    # Both tokens parse and change nothing, yet they are two observations:
    # naming each known target identifies it.  One outcome per child mask
    # would leave both targets in one block, unidentified: value 0.
    mind = helpers.make_mind(["c0", "c1"], ["c0", "c1"], [])
    system = SignalSystem.from_pairs([("z_c0", "c0"), ("z_c1", "c1")])
    scenario = Scenario(mind=mind, system=system, targets=("c0", "c1"), prior=(0.5, 0.5))
    assert exact_value_tiny(scenario, 0) == 0.0
    assert exact_value_tiny(scenario, 1) == 1.0 == oracle.exact_value_memoized(scenario, 1)


def _star_scenario(targets, prior) -> Scenario:
    system = SignalSystem.from_pairs([("z_b", "b"), ("z_1", "d1"), ("z_2", "d2")])
    return Scenario(mind=helpers.star(), system=system, targets=targets, prior=prior)


# Two- and three-target scenarios on the star mind, some with zero-weight targets.
_STAR_CASES = [
    (("d1", "d2"), (0.5, 0.5)),
    (("d1", "d2"), (0.0, 1.0)),
    (("b", "d1", "d2"), (0.2, 0.3, 0.5)),
    (("b", "d1", "d2"), (0.25, 0.0, 0.75)),
]


@pytest.mark.parametrize("targets, prior", _STAR_CASES)
def test_exact_value_with_zero_weight_targets(targets, prior):
    scenario = _star_scenario(targets, prior)
    for t in range(4):
        assert exact_value_tiny(scenario, t) == oracle.exact_value_per_history(scenario, t)


def _expanded_nodes(scenario: Scenario, t: int) -> set[tuple[int, tuple[int, ...], int]]:
    """The ``(state, live targets, rounds left)`` nodes at which the exact search picks tokens."""
    bits = [scenario.mind.space.bit(target) for target in scenario.targets]
    point_laws = [{tok: 1.0} for tok in scenario.system.tokens]
    seen: set = set()
    expanded: set = set()
    todo = [(scenario.mind.axiom_mask, scenario.prior, t)]
    while todo:
        mask, joint, left = todo.pop()
        live = tuple(i for i, p in enumerate(joint) if p > 0.0)
        key = (mask, live, left)
        if key in seen:
            continue
        seen.add(key)
        if (len(live) == 1 and bits[live[0]] & mask) or left == 0:
            continue
        expanded.add(key)
        for assignment in itertools.product(point_laws, repeat=len(live)):
            laws = [None] * len(joint)
            for i, law in zip(live, assignment):
                laws[i] = law
            for child, sub in scenario.step(mask, scenario.view(mask)[0], laws, joint).values():
                todo.append((child, sub, left - 1))
    return expanded


def _count_calls(monkeypatch, cls, name):
    original = getattr(cls, name)
    calls = []

    def counted(self, *args):
        calls.append((id(self),) + args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def _assert_steps_once_per_node(monkeypatch, scenario: Scenario) -> None:
    # At every horizon the exact search reads each expanded node's
    # outcomes from one view and never steps, so neither the root's
    # shortcut nor a closed-form row calls view; the per-history oracle
    # steps more often than that wherever a node is expanded.
    nodes = [_expanded_nodes(scenario, t) for t in range(4)]
    views = _count_calls(monkeypatch, Scenario, "view")
    steps = _count_calls(monkeypatch, Scenario, "step")
    for t in range(4):
        views.clear()
        steps.clear()
        value = exact_value_tiny(scenario, t)
        assert len(views) == len(nodes[t])
        assert not steps
        assert value == oracle.exact_value_per_history(scenario, t)
        assert len(nodes[t]) < len(steps) or not nodes[t]


def test_exact_value_steps_once_per_node(monkeypatch):
    _assert_steps_once_per_node(monkeypatch, _star_scenario(("b", "d1", "d2"), (0.2, 0.3, 0.5)))


def test_exact_value_expands_no_node_at_an_acquired_root(monkeypatch):
    # The one live target is an axiom: its prior is won before any round.
    system = SignalSystem.from_pairs([("z_a", "a"), ("z_b", "b"), ("z_1", "d1")])
    scenario = Scenario(mind=helpers.star(), system=system, targets=("a", "d1"), prior=(1.0, 0.0))
    assert not any(_expanded_nodes(scenario, t) for t in range(4))
    _assert_steps_once_per_node(monkeypatch, scenario)
    assert [exact_value_tiny(scenario, t) for t in range(4)] == [1.0] * 4


def test_exact_value_steps_once_per_node_with_one_outcome(monkeypatch):
    # No token ever parses, so every node has the one null outcome and
    # only the whole live set is a block.
    system = SignalSystem.from_pairs([("z_1", "d1"), ("z_2", "d2")])
    scenario = Scenario(mind=helpers.star(), system=system, targets=("d1", "d2"), prior=(0.5, 0.5))
    _assert_steps_once_per_node(monkeypatch, scenario)


# --- broadcast search --------------------------------------------------------


def _blocked(mind: Mind, target: str) -> Mind:
    """The mind without its rules for ``target``, which it then never learns."""
    rules = tuple(r for r in mind.rules if r.target != target)
    return dataclasses.replace(mind, rules=rules)


def _random_type(rng: random.Random, instance) -> Mind:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(instance.minds)
    if kind == 1:
        return _blocked(rng.choice(instance.minds), instance.target)
    mind = helpers.random_mind(rng, max_rules=8, space=instance.space)
    rule = ExpansionRule(frozenset(sorted(mind.axioms)[:1]), instance.target)
    if kind == 2 and instance.target not in mind.axioms and rule not in mind.rules:
        # A direct rule from the axioms keeps the target within reach.
        mind = dataclasses.replace(mind, rules=mind.rules + (rule,))
    return mind


def _random_instance(rng: random.Random):
    base = broadcast_construct(rng.randint(2, 3), rng.randint(2, 3))
    minds = tuple(_random_type(rng, base) for _ in range(rng.randint(1, 4)))
    return dataclasses.replace(base, minds=minds)


def _threshold(instance) -> tuple[int, Optional[int]]:
    """The least cap at which the search finishes, and its answer there.

    Every smaller cap must raise, naming that cap.
    """
    for cap in range(2001):
        try:
            return cap, broadcast_min_length(instance, cap=cap)
        except CapExceededError as exc:
            assert str(exc) == f"product-state search exceeded {cap} states"
    pytest.fail("the search stores more than 2000 product states")


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_broadcast_cap_has_one_threshold(rng):
    # Below one cap the search raises; from it up it gives the oracle's uncapped answer.
    instance = _random_instance(rng)
    want = oracle.broadcast_min_length(instance)
    threshold, got = _threshold(instance)
    assert got == want
    for cap in list(range(threshold, max(threshold, 40) + 1)) + [2000]:
        assert broadcast_min_length(instance, cap=cap) == want


@pytest.mark.parametrize("k, depth", [(k, depth) for k in range(2, 6) for depth in range(2, 6)])
def test_broadcast_finishes_wherever_the_oracle_does(k, depth):
    instance = broadcast_construct(k, depth)
    threshold, got = _threshold(instance)
    assert got == k * (depth - 1) + 1
    with pytest.raises(CapExceededError):
        oracle.broadcast_min_length(instance, cap=threshold - 1)


def test_broadcast_cap_counts_stored_states_with_the_start():
    # k=2, L=2: the start, both one-token states, then from the first of
    # them the state knowing both private concepts and the state where
    # mind 1 knows the target; naming the target from the former ends it.
    instance = broadcast_construct(2, 2)
    assert _threshold(instance) == (5, 3)


def test_broadcast_scale_is_bounded_by_the_cap():
    # The cap bounds the product states stored, so no clock is needed.
    assert broadcast_min_length(broadcast_construct(20, 6), cap=2000) == 101
    assert broadcast_min_length(broadcast_construct(8, 4), cap=200) == 25


@given(st.integers(2, 4), st.integers(2, 4), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_broadcast_check_matches_the_label_level_replay(k, depth, rng):
    # Random draws from the alphabet repeat tokens and name concepts no
    # mind can parse yet; the tight sequence with tokens slipped in and
    # neighbours swapped also lands the target, or misses it by a step.
    instance = broadcast_construct(k, depth)
    tokens = instance.system.tokens
    if rng.random() < 0.5:
        sequence = rng.choices(tokens, k=rng.randint(0, 3 * len(instance.tight_sequence)))
    else:
        sequence = list(instance.tight_sequence)
        for _ in range(rng.randint(0, 4)):
            sequence.insert(rng.randint(0, len(sequence)), rng.choice(tokens))
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(sequence) - 1)
            sequence[i], sequence[i + 1] = sequence[i + 1], sequence[i]
    assert broadcast_check(instance, sequence) == oracle.broadcast_check(instance, sequence)


@pytest.mark.parametrize("k, depth", [(2, 2), (2, 3), (3, 3)])
def test_broadcast_with_a_blocked_type_finds_nothing(k, depth):
    base = broadcast_construct(k, depth)
    minds = base.minds[:-1] + (_blocked(base.minds[-1], base.target),)
    instance = dataclasses.replace(base, minds=minds)
    assert oracle.broadcast_min_length(instance) is None
    assert broadcast_min_length(instance) is None
    assert broadcast_min_length(instance, cap=0) is None  # decided before any search


def test_broadcast_expands_each_type_state_once(monkeypatch):
    instance = broadcast_construct(5, 5)
    family_sizes = sum(len(enumerate_reachable(mind).state_masks) for mind in instance.minds)
    calls = _count_calls(monkeypatch, Mind, "expand_mask")
    assert broadcast_min_length(instance) == 5 * 4 + 1
    assert len(calls) <= family_sizes
    assert len(set(calls)) == len(calls)


# --- CLI bytes ---------------------------------------------------------------


def _stdout(capsys, argv) -> str:
    assert run_cli(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("k, depth", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_broadcast_min_bytes(capsys, monkeypatch, k, depth):
    argv = ["broadcast-min", "--k", str(k), "--L", str(depth)]
    got = _stdout(capsys, argv)
    monkeypatch.setattr(cli, "broadcast_min_length", oracle.broadcast_min_length)
    assert got == _stdout(capsys, argv) == f"{k * (depth - 1) + 1}\n"


@pytest.mark.parametrize("targets, prior", _STAR_CASES)
def test_value_exact_bytes(capsys, monkeypatch, fixtures_dir, tmp_path, targets, prior):
    data = json.loads((fixtures_dir / "star.scenario").read_text())
    data["signals"] = [s for s in data["signals"] if s["target"] in ("b", "d1", "d2")]
    data["targets"], data["prior"] = list(targets), list(prior)
    path = tmp_path / "small.scenario"
    path.write_text(json.dumps(data))
    argvs = [
        ["value", "--scenario", str(path), "--horizon", str(t), "--exact"] for t in range(4)
    ]
    got = [_stdout(capsys, argv) for argv in argvs]
    monkeypatch.setattr(planner, "exact_value_tiny", oracle.exact_value_per_history)
    assert got == [_stdout(capsys, argv) for argv in argvs]
