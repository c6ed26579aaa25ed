"""The command line's direct argv reader against the argparse parser built from the same table.

``cli._read_argv`` reads the common form of an argv (a command, then full
flag names each followed by its value as its own token) without argparse.
For any argv it must return either ``None`` or the namespace that the
parser's ``parse_args`` gives, and ``None`` wherever ``parse_args`` raises,
so that argparse alone words help and usage errors.  Well-formed argv must
never build the parser at all.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noesis import cli
from noesis.cli import run_cli

_OWN = {
    "closure": ("--out", "--mind", "--start"),
    "derive": ("--out", "--mind", "--target", "--start"),
    "reach": ("--out", "--mind", "--format", "--cap"),
    "distance": ("--out", "--mind", "--target"),
    "capacity": ("--out", "--scenario", "--state"),
    "simulate": ("--out", "--scenario", "--seed", "--horizon", "--episodes", "--format"),
    "audit": ("--out", "--scenario", "--horizon", "--cap"),
    "value": ("--out", "--scenario", "--horizon", "--exact"),
    "allocate": ("--out", "--N", "--B", "--L"),
    "broadcast-gen": ("--out", "--k", "--L"),
    "broadcast-min": ("--out", "--k", "--L", "--cap"),
}
_FLAGS = tuple(sorted({flag for flags in _OWN.values() for flag in flags}))
_OTHER_OPTIONS = (
    # abbreviations, some ambiguous in some commands
    "--hor", "--sc", "--m", "--ex", "--ep", "--fo", "--st", "--s", "--ta", "--ca", "--o", "--se",
    # values joined with '='
    "--horizon=2", "--mind=m.mind", "--cap=3", "--format=csv", "--exact=1", "--seed=-1", "--N=4",
    "--", "-h", "--help",
)
_VALUES = (
    "0", "2", "7", "-5", "-1", "1" + "0" * 39, "9" * 5000, "-x", "", "a,b",
    "json", "csv", "xml", " 5 ", "m.mind", "s.scenario",
)
_TOKENS = (*_OWN, "bogus", *_FLAGS, *_OTHER_OPTIONS, *_VALUES)


def test_each_command_takes_the_flags_it_took():
    assert {name: tuple(command.flags) for name, command in cli._COMMANDS.items()} == _OWN


@st.composite
def _argv(draw) -> list[str]:
    """A command name or none; each of its flags absent, given or repeated, in any order; a few stray tokens."""
    name = draw(st.sampled_from((*_OWN, "bogus", None)))
    value = st.sampled_from(_VALUES + ("2", "3", "json", "csv"))  # some commonly valid values twice
    words = []
    for flag in _OWN.get(name, ("--out", "--mind", "--horizon")):
        for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
            words.append([flag] if flag == "--exact" else [flag, draw(value)])
    words = draw(st.permutations(words))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        words.insert(draw(st.integers(0, len(words))), [draw(st.sampled_from(_TOKENS))])
    return ([name] if name else []) + [token for word in words for token in word]


def _typed(namespace) -> dict:
    return {key: (type(value), value) for key, value in vars(namespace).items()}


@settings(max_examples=2000, deadline=None)
@given(_argv())
def test_reader_agrees_with_argparse_or_declines(argv):
    read = cli._read_argv(list(argv))
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # -h prints the help
            parsed = cli._build_parser().parse_args(list(argv))
    except (cli._CliError, SystemExit):
        assert read is None
        return
    if read is not None:
        assert _typed(read) == _typed(parsed)


@pytest.mark.parametrize(
    "argv, read_directly",
    [
        (["simulate", "--scenario", "s.scenario", "--horizon", "3", "--horizon", "4"], True),
        (["simulate", "--scenario", "s.scenario", "--horizon", "3", "--seed", "-2"], False),
        (["value", "--scenario", "s.scenario", "--horizon", "x", "--horizon", "2"], False),
        (["reach", "--mind", "m.mind", "--cap", "7", "--cap", "3", "--format", "csv", "--format", "json"], True),
        (["reach", "--mind", "m.mind", "--cap", "-1", "--cap", "3"], False),
        (["value", "--exact", "--scenario", "s.scenario", "--exact", "--horizon", " 5 ", "--out", ""], True),
        (["allocate", "--N", "4", "--B", "5"], False),
        (["allocate", "--N", "4", "--B", "5", "--L", "1" + "0" * 39], True),
        (["closure", "--mind", "m.mind", "--start"], False),
        (["closure", "--mind", "m.mind", "extra"], False),
    ],
)
def test_repeats_and_edges(argv, read_directly):
    """A repeated flag keeps its last value; a bad or dash-led value anywhere leaves the argv to argparse."""
    read = cli._read_argv(argv)
    assert (read is not None) == read_directly
    try:
        parsed = cli._build_parser().parse_args(argv)
    except cli._CliError:
        assert read is None
        return
    assert read is None or _typed(read) == _typed(parsed)


_WELL_FORMED = {
    "closure": ["--mind", "fixtures/arithmetic.mind", "--start", "a,b"],
    "derive": ["--mind", "fixtures/arithmetic.mind", "--target", "d"],
    "reach": ["--mind", "fixtures/diamond.mind", "--format", "csv", "--cap", "100"],
    "distance": ["--mind", "fixtures/diamond.mind", "--target", "d"],
    "capacity": ["--scenario", "fixtures/star.scenario", "--state", "a,b"],
    "simulate": ["--scenario", "fixtures/star.scenario", "--seed", "7", "--horizon", "2", "--episodes", "2"],
    "audit": ["--scenario", "fixtures/star.scenario", "--horizon", "2"],
    "value": ["--scenario", "fixtures/arithmetic.scenario", "--horizon", "2", "--exact"],
    "allocate": ["--N", "4", "--B", "5", "--L", "2"],
    "broadcast-gen": ["--k", "2", "--L", "3"],
    "broadcast-min": ["--k", "2", "--L", "2"],
}


def test_every_command_has_a_well_formed_argv():
    assert sorted(_WELL_FORMED) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(_WELL_FORMED))
def test_well_formed_argv_never_builds_the_parser(command, capsys, monkeypatch, fixtures_dir, tmp_path):
    def refuse():
        raise AssertionError("the argparse parser was built for a well-formed argv")

    monkeypatch.chdir(fixtures_dir.parent)
    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert run_cli([command, *_WELL_FORMED[command], "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr() == ("", "")
