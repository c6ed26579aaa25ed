"""Differential tests: the trace writers against the dict-route writers of ``oracle``.

``fileio.dump_traces`` must give the bytes of ``dump_json`` over
``trace_to_dict``'s dicts, for one trace and for a list, and
``trace_to_csv`` the bytes of the export that sorted every state afresh,
or errors of the same type and text; where a state label holds ``|``,
the CSV export instead refuses the first row with such a label.  The inputs are episodes of random
scenarios under random and point kernels, chain episodes whose labels
need JSON escapes or CSV quoting, and hand-built traces whose states
repeat, grow, shrink and jump and whose fields take types
``run_episode`` never gives.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import (
    FormatError,
    NoesisError,
    Scenario,
    SignalSystem,
    broadcast_strategy,
    direct_strategy,
    run_episode,
    scripted_strategy,
)
from noesis import fileio
from noesis.fileio import dump_traces, trace_to_csv
from noesis.teaching import EpisodeTrace, Round


def _outcome(write, *args):
    try:
        return write(*args)
    except (NoesisError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _csv_outcome(traces):
    """The oracle's CSV outcome, or the refusal of the first row whose state holds a label with ``|``.

    The row is refused after it is written, so an error the oracle meets
    up to and including that row comes first.  The refusal names the
    least such label of the row's state.
    """
    for i, trace in enumerate(traces):
        for j, r in enumerate(trace.rounds):
            barred = [label for label in r.state if isinstance(label, str) and "|" in label]
            if barred:
                head = [*traces[:i], dataclasses.replace(trace, rounds=trace.rounds[: j + 1])]
                written = _outcome(oracle.trace_to_csv, head)
                if not isinstance(written, str):
                    return written
                refusal = f"label {min(barred)!r} holds '|', which joins a state's labels in CSV; use --format json"
                return FormatError, refusal
    return _outcome(oracle.trace_to_csv, traces)


def _assert_same_writes(traces, digest=""):
    for trace in traces:
        assert _outcome(dump_traces, trace, digest) == _outcome(oracle.dump_trace, trace, digest)
    assert _outcome(dump_traces, traces, digest) == _outcome(oracle.dump_trace_list, traces, digest)
    assert _outcome(trace_to_csv, traces) == _csv_outcome(traces)


def _kernel(rng: random.Random, scenario: Scenario, horizon: int):
    kind = rng.choice(["random", "direct", "scripted", "broadcast"])
    if kind == "random":
        return helpers.random_kernel(rng.randrange(10**6), scenario)
    if kind == "direct":
        return direct_strategy(scenario)
    if kind == "scripted":
        return scripted_strategy(helpers.random_script(rng, scenario, horizon))
    return broadcast_strategy(helpers.random_row(rng, scenario, horizon))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_episodes_of_random_scenarios(seed):
    rng = random.Random(seed)
    scenario = helpers.random_scenario(rng, max_concepts=8)
    horizon = rng.randint(0, 10)
    kernel = _kernel(rng, scenario, horizon)
    traces = [run_episode(scenario, kernel, horizon, seed=seed + i) for i in range(rng.randint(0, 3))]
    _assert_same_writes(traces, rng.choice(["", "abc123", 'dé"\\']))


# Concept labels without whitespace that need JSON escapes (non-ASCII, quote,
# backslash, a control character) or CSV quoting (comma, quote, the bar).
_LABELS = st.text(st.sampled_from('ab,|"\\/é\U0001f600\x00'), min_size=1, max_size=4)


def _chain(labels: list[str], targets: int) -> Scenario:
    mind = helpers.make_mind(labels, labels[:1], [([a], b) for a, b in zip(labels, labels[1:])])
    system = SignalSystem.from_pairs([(f"z{i}", c) for i, c in enumerate(labels)])
    chosen = tuple(labels[-targets:])
    return Scenario(mind=mind, system=system, targets=chosen, prior=(1 / len(chosen),) * len(chosen))


@settings(max_examples=100, deadline=None)
@given(st.lists(_LABELS, min_size=2, max_size=40, unique=True), st.integers(1, 3), st.integers(0, 2**32))
def test_chain_episodes_with_awkward_labels(labels, targets, seed):
    scenario = _chain(labels, min(targets, len(labels) - 1))
    strategy = direct_strategy(scenario)
    traces = [run_episode(scenario, strategy, len(labels) + 1, seed=seed + i) for i in range(2)]
    _assert_same_writes(traces, "abc123")


_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1 / 3, 0.1 + 0.2, 5e-324])
_ODD_NUMBERS = st.integers(-2, 2) | st.booleans()  # json writes them; ``run_episode`` never gives them
_HUGE = 10**5000  # past the integer digit limit: spelling it is a ValueError


def _moved(state: frozenset, move: tuple, labels: list) -> frozenset:
    """The next round's state: the same set, an equal copy, grown, shrunk or emptied."""
    kind = move[0]
    if kind == "same":
        return state
    if kind == "copy":
        return frozenset(list(state))
    if kind == "empty":
        return frozenset()
    if kind == "add":  # none, one or several labels, some of them maybe known
        return state | set(labels)
    return frozenset(sorted(state, key=repr)[move[1]:])  # drop


_MOVES = st.sampled_from(
    [("same",), ("copy",), ("empty",), ("add",), ("add",), ("add",), ("drop", 1), ("drop", 3)]
)


@st.composite
def _traces(draw):
    """A hand-built trace; about one in four also takes odd types or parses ``_null_``."""
    odd = draw(st.integers(0, 3)) == 0
    null = draw(st.integers(0, 3)) == 0
    labels = (_LABELS | st.integers(0, 2)) if odd else _LABELS
    number = (_FLOATS | _ODD_NUMBERS) if odd else _FLOATS
    count = (st.integers(0, 9) | st.booleans() | st.just(_HUGE)) if odd else st.integers(0, 9)
    tokens = st.sampled_from(["z", "_null_"] if null else ["z", 'q"é'])
    state = frozenset(draw(st.lists(labels, max_size=3)))
    rounds = []
    for t in range(1, draw(st.integers(0, 8)) + 1):
        state = _moved(state, draw(_MOVES), draw(st.lists(labels, min_size=1, max_size=3)))
        rounds.append(
            Round(
                draw(count) if odd else t,
                draw(tokens),
                draw(st.none() | tokens),
                state,
                tuple(draw(st.lists(number, max_size=4))),
                draw(number),
                draw(number),
            )
        )
    optional = st.none() | count
    return EpisodeTrace(draw(_LABELS), draw(count), draw(count), tuple(rounds), draw(optional), draw(optional))


@settings(max_examples=400, deadline=None)
@given(st.lists(_traces(), max_size=3), st.text(max_size=3) | st.none())
def test_hand_built_traces(traces, digest):
    _assert_same_writes(traces, digest)


def _round(t, state, belief=(0.5, 0.5), parsed="z"):
    return Round(t, "z", parsed, frozenset(state), belief, 1.0, 0.5)


_A, _B = frozenset({"a"}), frozenset({"b", "a"})


@pytest.mark.parametrize(
    "rounds",
    [
        (),
        (_round(1, ()), _round(2, ())),
        (Round(1, "z", "z", _B, (1.0,), 0.0, 0.0), Round(2, "z", "z", frozenset(list(_B)), (1.0,), 0.0, 0.0)),
        (_round(1, "abc"), _round(2, "ab"), _round(3, "abcde"), _round(4, "e")),
        (_round(1, ("é", '"', "\\")), _round(2, ("é", '"', "\\", "a,b"))),
        (_round(1, "a", (-0.0, math.nan, math.inf, -math.inf)), _round(2, "ab", (0.0, -0.0))),
        (_round(1, "a", (1, 0.5)), _round(2, "ab", (True, 0.0))),
    ],
    ids=["zero rounds", "empty states", "equal distinct states", "shrink and jump", "escapes",
         "signed zeros and non-finite beliefs", "int and bool beliefs"],
)
def test_named_cases(rounds):
    trace = EpisodeTrace("a", 3, len(rounds), rounds, None, 1)
    _assert_same_writes([trace, trace], "abc")


def test_parsed_null_spelling_raises_the_same_error():
    rounds = (Round(1, "z", "z", _A, (1.0,), 0.0, 0.0), Round(2, "_null_", "_null_", _B, (1.0,), 0.0, 0.0))
    trace = EpisodeTrace("a", 3, 2, rounds, None, None)
    refused = "parsed token '_null_' would read back as the null observation"
    for write, value in ((dump_traces, trace), (dump_traces, [trace]), (trace_to_csv, [trace])):
        with pytest.raises(FormatError, match=refused):
            write(value)
    _assert_same_writes([trace])


def test_run_episode_traces_skip_the_dict_route_and_sort_once(monkeypatch):
    """A chain episode's JSON skips ``trace_to_dict`` and ``dump_json`` and sorts one state per episode."""
    labels = [f"c{i}" for i in range(60)]  # "c10" sorts before "c2", so labels land mid-text
    scenario = _chain(labels, 2)
    traces = [run_episode(scenario, direct_strategy(scenario), 61, seed=s) for s in (1, 2)]
    assert all(len(r.state) == 1 + r.t for r in traces[0].rounds[:58])
    want = oracle.dump_trace_list(traces, "d")

    def refused(*args):
        raise AssertionError("the dict route ran")

    sorts = []

    def counted_sorted(values):
        sorts.append(len(values))
        return sorted(values)

    monkeypatch.setattr(fileio, "trace_to_dict", refused)
    monkeypatch.setattr(fileio, "dump_json", refused)
    monkeypatch.setattr(fileio, "sorted", counted_sorted, raising=False)
    assert dump_traces(traces, "d") == want
    assert sorts == [2, 2]  # each episode's first state
