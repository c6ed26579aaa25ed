"""Every README command, and each query command on each fixture, prints the recorded bytes.

Each line of ``golden/commands.txt`` names a file in ``golden/`` and the
command, run from the root of the repository, whose stdout the file holds.
The benchmark's gate compares parsed output; these files pin the bytes.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from noesis.cli import run_cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = dict(line.split(" ", 1) for line in (GOLDEN / "commands.txt").read_text().splitlines())


def _readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("noesis ")]


def test_every_readme_command_is_recorded():
    readme = _readme_commands()
    assert readme and set(readme) <= set(COMMANDS.values())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(COMMANDS[name].split()[1:])
    assert code == 0
    assert out.getvalue().encode() == (GOLDEN / name).read_bytes()
