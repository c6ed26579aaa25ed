"""The planner's memoized searches against the searches they replaced.

``exact_value_tiny`` searches each ``(state, live targets, depth)`` node
once, and ``broadcast_min_length`` expands each state of each mind once;
the oracles in ``oracle.py`` expand afresh at every history and at every
product state.  Values must match exactly, caps must fire at the same
point, the CLI bytes must not move, and the work counts must fall.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

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
        assert exact_value_tiny(scenario, t) == oracle.exact_value_per_history(scenario, t)


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
    """The ``(state, live targets, depth)`` nodes at which the exact search picks tokens."""
    bits = [scenario.mind.space.bit(target) for target in scenario.targets]
    point_laws = [{tok: 1.0} for tok in scenario.system.tokens]
    seen: set = set()
    expanded: set = set()
    todo = [(scenario.mind.axiom_mask, scenario.prior, 0)]
    while todo:
        mask, joint, depth = todo.pop()
        live = tuple(i for i, p in enumerate(joint) if p > 0.0)
        key = (mask, live, depth)
        if key in seen:
            continue
        seen.add(key)
        if (len(live) == 1 and bits[live[0]] & mask) or depth == t:
            continue
        expanded.add(key)
        for assignment in itertools.product(point_laws, repeat=len(live)):
            laws = [None] * len(joint)
            for i, law in zip(live, assignment):
                laws[i] = law
            for child, sub in scenario.step(mask, laws, joint).values():
                todo.append((child, sub, depth + 1))
    return expanded


def _count_calls(monkeypatch, cls, name):
    original = getattr(cls, name)
    calls = []

    def counted(self, *args):
        calls.append((id(self),) + args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_exact_value_steps_once_per_node(monkeypatch):
    scenario = _star_scenario(("b", "d1", "d2"), (0.2, 0.3, 0.5))
    nodes = _expanded_nodes(scenario, 3)
    calls = _count_calls(monkeypatch, Scenario, "step")
    value = exact_value_tiny(scenario, 3)
    memoized = len(calls)
    assert value == oracle.exact_value_per_history(scenario, 3)
    per_history = len(calls) - memoized
    assert memoized == sum(3 ** len(live) for _, live, _ in nodes)
    assert memoized <= 27 * len(nodes)
    assert memoized < per_history


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


def _same_search(instance, cap: int) -> None:
    try:
        want = oracle.broadcast_min_length(instance, cap=cap)
    except CapExceededError as exc:
        with pytest.raises(CapExceededError, match=str(exc)):
            broadcast_min_length(instance, cap=cap)
    else:
        assert broadcast_min_length(instance, cap=cap) == want


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_broadcast_matches_oracle_at_every_cap(rng):
    base = broadcast_construct(rng.randint(2, 3), rng.randint(2, 3))
    minds = tuple(_random_type(rng, base) for _ in range(rng.randint(1, 4)))
    instance = dataclasses.replace(base, minds=minds)
    for cap in list(range(1, 41)) + [2000]:
        _same_search(instance, cap)


@pytest.mark.parametrize("k, depth", [(2, 2), (2, 3), (3, 3)])
def test_broadcast_with_a_blocked_type_finds_nothing(k, depth):
    base = broadcast_construct(k, depth)
    minds = base.minds[:-1] + (_blocked(base.minds[-1], base.target),)
    instance = dataclasses.replace(base, minds=minds)
    assert oracle.broadcast_min_length(instance) is None
    assert broadcast_min_length(instance) is None


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
