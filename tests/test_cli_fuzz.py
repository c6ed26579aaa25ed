"""Mutated fixtures never end in a traceback: every command exits 0, 1 or 2.

Each example takes one of the four fixtures, applies a few mutations at
random places in its JSON (drop a field or element; swap in ``null``,
NaN, ``10**30``, ``"_null_"`` or ``[]``; duplicate a field or element;
put a value of the wrong type) and runs the copy through :func:`run_cli`
on the commands that read that kind of file.  An exception escaping
``run_cli`` fails the test with its traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noesis.cli import run_cli


class _Object(list):
    """A JSON object as its list of ``[key, value]`` pairs, so a key can appear twice."""


def _load(text: str):
    return json.loads(text, object_pairs_hook=lambda pairs: _Object([list(p) for p in pairs]))


def _dump(doc) -> str:
    if isinstance(doc, _Object):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in doc) + "}"
    if isinstance(doc, list):
        return "[" + ", ".join(map(_dump, doc)) + "]"
    return json.dumps(doc)  # NaN comes out as the bare token NaN


def _slots(doc):
    """Every ``(container, index)`` holding a value below the root; an object's index is its pair's."""
    children = [pair[1] for pair in doc] if isinstance(doc, _Object) else doc
    for i, child in enumerate(children):
        yield doc, i
        if isinstance(child, list):
            yield from _slots(child)


def _wrong_type(value):
    if isinstance(value, _Object):
        return ["x"]
    if isinstance(value, list):
        return _Object([["x", 1]])
    if isinstance(value, str):
        return 7
    if value is None or isinstance(value, bool):
        return "x"
    return str(value)


_SWAPS = (None, math.nan, 10**30, "_null_", [])
_KINDS = ("drop", "swap", "duplicate", "wrong type")


@st.composite
def _mutated(draw, text: str) -> str:
    doc = _load(text)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, i = draw(st.sampled_from(slots))
        kind = draw(st.sampled_from(_KINDS))
        if kind == "drop":
            del container[i]
        elif kind == "duplicate":
            container.insert(i, copy.deepcopy(container[i]))
        else:
            old = container[i][1] if isinstance(container, _Object) else container[i]
            new = copy.deepcopy(draw(st.sampled_from(_SWAPS))) if kind == "swap" else _wrong_type(old)
            if isinstance(container, _Object):
                container[i][1] = new
            else:
                container[i] = new
    return _dump(doc)


_MIND_COMMANDS = (
    ["closure", "--mind"],
    ["derive", "--target", "d", "--mind"],
    ["reach", "--format", "json", "--mind"],
    ["distance", "--target", "d", "--mind"],
)
_SCENARIO_COMMANDS = (
    ["capacity", "--scenario"],
    ["simulate", "--seed", "7", "--horizon", "2", "--scenario"],
    ["audit", "--horizon", "2", "--scenario"],
    ["value", "--horizon", "2", "--scenario"],
)


@pytest.mark.parametrize("name", ["arithmetic.mind", "diamond.mind", "arithmetic.scenario", "star.scenario"])
def test_mutated_fixture_exits_with_a_documented_code(fixtures_dir, tmp_path, name):
    commands = _MIND_COMMANDS if name.endswith(".mind") else _SCENARIO_COMMANDS
    path = tmp_path / name

    @given(_mutated((fixtures_dir / name).read_text()))
    @settings(max_examples=60, deadline=None)
    def run(text):
        path.write_text(text)
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli([*command, str(path)])
            assert code in (0, 1, 2), (command, text)
            assert "Traceback" not in err.getvalue()

    run()
