"""Differential tests: the explicit-stack JSON writer against the recursive
copy with rounded floats written by ``json.dumps(..., indent=2)``."""

from __future__ import annotations

import collections
import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from noesis.fileio import dump_json

_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, 0.1 + 0.2, 1 / 3, 1e16, 123456789012.5)
_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(_EDGE_FLOATS)
_INTS = st.integers() | st.integers(2**64 - 2, 2**80) | st.integers(-(2**80), -(2**64) + 2)
# Every code point, lone surrogates and control characters included.
_TEXTS = st.text(st.characters(exclude_categories=())) | st.text(alphabet="a\x00\x1f\"\\/é \U0001f600")
_SCALARS = st.none() | st.booleans() | _INTS | _FLOATS | _TEXTS
_KEYS = _TEXTS | _INTS | _FLOATS | st.booleans() | st.none()
# Lists and tuples of one scalar type take the writer's one-join path.
_FLAT = st.one_of(*(st.lists(kind, max_size=6) for kind in (_FLOATS, _TEXTS, _INTS, st.booleans(), st.none())))


class _Name(str):
    pass


class _Prob(float):
    pass


class _Count(enum.IntEnum):
    ONE = 1


_Pair = collections.namedtuple("_Pair", "x y")
# Lists of rows: all lists, or all tuples, of one scalar type take the writer's
# one-join-per-row path; rows of both kinds, rows of subclass scalars and
# namedtuple rows take the general one.
_ROW_FLOATS = _FLOATS | st.sampled_from((-0.0, 0.0, math.nan, math.inf, -math.inf))
_ROW_KINDS = (_ROW_FLOATS, _TEXTS, _INTS, st.booleans(), st.none())
_ROWS = st.one_of(
    *(st.lists(st.lists(kind, max_size=4), max_size=5) for kind in _ROW_KINDS),
    *(st.lists(st.lists(kind, max_size=4).map(tuple), max_size=5) for kind in _ROW_KINDS),
    st.lists(st.lists(_TEXTS, max_size=3) | st.lists(_TEXTS, max_size=3).map(tuple), max_size=5),
    st.lists(st.lists(st.builds(_Name, _TEXTS) | st.builds(_Prob, _ROW_FLOATS), max_size=3), max_size=4),
    st.lists(st.builds(_Pair, _ROW_FLOATS, _ROW_FLOATS), max_size=4),
)
_VALUES = st.recursive(
    _SCALARS | _FLAT | _FLAT.map(tuple) | _ROWS,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(_KEYS, kids, max_size=5),
    max_leaves=40,
)


def _outcome(write, value):
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_same_bytes_as_oracle(value):
    assert dump_json(value) == oracle.dump_json(value)


@settings(max_examples=300, deadline=None)
@given(_ROWS | st.dictionaries(_TEXTS, _ROWS, max_size=3))
def test_lists_of_rows_same_bytes_as_oracle(value):
    assert dump_json(value) == oracle.dump_json(value)


@pytest.mark.parametrize(
    "value",
    [
        [("a", "b"), ("c",), ()],
        [[], []],
        [[[]]],
        {"states": [(), ("é", 'q"z', "x\\y", "\U0001f600")], "count": 2},
        [[0.0, -0.0], [math.nan, math.inf, -math.inf], [1 / 3, 0.1 + 0.2], []],
        [[1, 2**70], [-(2**70)], []],
        [[True, False], [], [True]],
        [[None], [None, None]],
        [["a"], ("b",)],
        [[1], ["a"]],
        [[1, "a"]],
        [[_Name("a"), "b"], ["c"]],
        [(_Prob(0.5),), (1.5,)],
        [_Pair(1 / 3, -0.0), _Pair(math.nan, math.inf)],
        [("a",), _Pair("x", "y")],
        [[[1]], [[2]]],
    ],
    ids=["tuple rows", "empty rows", "nested empty rows", "escaped labels", "float rows", "int rows",
         "bool rows", "null rows", "list and tuple rows", "rows of two types", "row of two types",
         "subclass str row", "subclass float row", "namedtuple rows", "tuple and namedtuple rows",
         "rows of lists"],
)
def test_lists_of_rows(value):
    assert dump_json(value) == oracle.dump_json(value)


_SHARED = [0.25, {}]


@pytest.mark.parametrize(
    "value",
    [
        [_Name("bé"), _Prob(0.1 + 0.2), _Count.ONE, [_Prob(1 / 3), _Prob(math.nan)]],
        {_Name("k"): _Prob(2 / 3), _Count.ONE: [_Count.ONE], _Prob(0.1 + 0.2): None, math.inf: 1},
        collections.OrderedDict(b=1, a=[collections.namedtuple("P", "x y")(0.5, "y")]),
        [[1], [1]],
        {"shared": _SHARED, "again": _SHARED},
    ],
    ids=["subclass values", "subclass keys", "dict and tuple subclasses", "equal siblings", "shared child"],
)
def test_subclasses_and_shared_children(value):
    assert dump_json(value) == oracle.dump_json(value)


@pytest.mark.parametrize(
    "value",
    [
        [0.0, -0.0],
        [-0.0, 0.0, {"z": -0.0}, [0.0, 1, -0.0]],
        [1 / 3, 0.5, 1 / 3, {"p": 1 / 3, "q": [0.5, 1 / 3]}, 0.1 + 0.2, 0.3],
        [math.nan, math.inf, -math.inf, math.nan, {"a": math.inf, "b": [-math.inf, math.nan]}],
        [float("nan"), float("nan"), -math.nan],
    ],
    ids=["signed zeros", "signed zeros nested", "repeated floats", "non-finite", "distinct nans"],
)
def test_float_examples(value):
    assert dump_json(value) == oracle.dump_json(value)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, [1, frozenset()], {"a": {(1,): 2}}, {"a": object()}, [object(), {(1,): 2}], {(1,): {1}},
     {b"k": 1}],
    ids=["set", "nested frozenset", "tuple key", "object", "first error wins", "key before value",
         "bytes key"],
)
def test_same_error_as_oracle(value):
    got = _outcome(dump_json, value)
    assert got == _outcome(oracle.dump_json, value)
    assert got[0] is TypeError


def test_circular_reference_is_a_value_error():
    looped = [1]
    looped.append(looped)
    with pytest.raises(ValueError, match="Circular reference detected"):
        dump_json(looped)
    inner = {"a": []}
    inner["a"].append({"up": inner})
    with pytest.raises(ValueError, match="Circular reference detected"):
        dump_json([inner])


def test_deep_nesting_has_no_limit():
    depth = 2_000
    value: list = []
    for _ in range(depth):
        value = [value]
    want = (
        "".join("  " * i + "[\n" for i in range(depth))
        + "  " * depth + "[]"
        + "".join("\n" + "  " * i + "]" for i in reversed(range(depth)))
        + "\n"
    )
    assert dump_json(value) == want
    for shallow in range(4):
        nest: list = []
        for _ in range(shallow):
            nest = [nest]
        assert dump_json(nest) == oracle.dump_json(nest)


def test_equal_keys_of_other_types_keep_their_own_text():
    """``1``, ``1.0`` and ``True`` are one dict key but three texts; the key-head memo must not merge them."""
    # In one dict the later keys fold into the first of them, 1, as in any dict.
    value = {
        "1": {True: 0, "1": 1, None: {1.0: 2, "true": 3}},
        1: 0, 1.0: 1, True: 2, None: 3,
        "null": [{1.0: {1: "a", "1.0": "b"}}, {True: {True: {"1": 4}}}, {None: {"None": 5, 1: 6}}],
        "tail": {"1": {1: {1.0: {True: {None: {"1": 7}}}}}},
    }
    assert dump_json(value) == json.dumps(value, indent=2) + "\n"
