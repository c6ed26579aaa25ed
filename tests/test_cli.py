from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import noesis
import oracle
from noesis import FormatError, Scenario, SignalSystem, direct_strategy, read_trace, run_episode, write_trace
from noesis.cli import run_cli


def _run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_star_completes_in_two(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "simulate",
            "--scenario", str(fixtures_dir / "star.scenario"),
            "--seed", "7",
            "--horizon", "2",
        )
        assert code == 0
        trace = json.loads(out)
        assert trace["tau"] == 2
        assert trace["rounds"][0]["z"] == "z_b"

    def test_same_seed_is_byte_identical(self, capsys, fixtures_dir, tmp_path):
        argv = [
            "simulate",
            "--scenario", str(fixtures_dir / "star.scenario"),
            "--seed", "11",
            "--horizon", "2",
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(argv + ["--out", str(first)]) == 0
        assert run_cli(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_multiple_episodes_csv(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "simulate",
            "--scenario", str(fixtures_dir / "star.scenario"),
            "--seed", "3",
            "--horizon", "2",
            "--episodes", "4",
            "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 4 * 2  # header plus 4 episodes of 2 rounds

    def test_normalization_note_on_stderr(self, capsys, fixtures_dir):
        code, _, err = _run(
            capsys,
            "simulate",
            "--scenario", str(fixtures_dir / "arithmetic.scenario"),
            "--seed", "1",
            "--horizon", "3",
        )
        assert code == 0
        assert "normalized" in err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("episodes", [1, 3])
    @pytest.mark.parametrize(
        "fixture", ["arithmetic.mind", "diamond.mind", "arithmetic.scenario", "star.scenario"]
    )
    def test_prints_the_oracle_bytes(self, capsys, fixtures_dir, tmp_path, fixture, episodes, fmt, to_file):
        path, out_path = fixtures_dir / fixture, tmp_path / "trace.out"
        argv = ["simulate", "--scenario", str(path), "--seed", "5", "--horizon", "3"]
        argv += ["--episodes", str(episodes), "--format", fmt] + (["--out", str(out_path)] if to_file else [])
        code, out, err = _run(capsys, *argv)
        try:
            bundle = oracle.load_scenario_bundle(path)
        except FormatError as exc:  # the two mind fixtures are not scenarios
            assert (code, out, err) == (1, "", f"error: {exc}\n")
            assert not out_path.exists()
            return
        strategy = bundle.strategy.build(bundle.scenario)
        traces = [run_episode(bundle.scenario, strategy, 3, seed=5 + i) for i in range(episodes)]
        if fmt == "csv":
            want = oracle.trace_to_csv(traces)
        elif episodes == 1:
            want = oracle.dump_trace(traces[0], bundle.digest)
        else:
            want = oracle.dump_trace_list(traces, bundle.digest)
        assert code == 0
        assert err == "".join(f"note: {note}\n" for note in bundle.notes)
        written = out_path.read_text() if to_file else None
        assert (out, written) == (("", want) if to_file else (want, None))

    def test_csv_refuses_a_state_label_holding_the_separator(self, capsys, tmp_path):
        # The state {a|b, o} would be written a|b|o, the cell of {a, b, o}.
        scenario = {
            "concepts": ["o", "a|b", "a", "b"],
            "axioms": ["o"],
            "rules": [{"prereqs": ["o"], "target": c} for c in ("a|b", "a", "b")],
            "signals": [{"token": f"z{i}", "target": c} for i, c in enumerate(("a|b", "a", "b"))],
            "targets": ["a|b"],
            "prior": [1.0],
            "strategy": {"kind": "direct"},
        }
        path = tmp_path / "bar.scenario"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        argv = ["simulate", "--scenario", str(path), "--seed", "1", "--horizon", "2"]
        refused = "error: label 'a|b' holds '|', which joins a state's labels in CSV; use --format json\n"
        assert _run(capsys, *argv, "--format", "csv") == (1, "", refused)
        code, out, _ = _run(capsys, *argv, "--format", "json")
        assert code == 0
        assert [r["state"] for r in json.loads(out)["rounds"]] == [["a|b", "o"], ["a|b", "o"]]

    def test_write_trace_is_a_fixed_point_on_a_long_chain(self, tmp_path):
        labels = [f"c{i}" for i in range(150)]  # "c10" sorts before "c2": labels land mid-state
        mind = helpers.make_mind(labels, labels[:1], [([a], b) for a, b in zip(labels, labels[1:])])
        system = SignalSystem.from_pairs([(f"z_{c}", c) for c in labels])
        scenario = Scenario(mind=mind, system=system, targets=("c140", "c149"), prior=(0.5, 0.5))
        trace = run_episode(scenario, direct_strategy(scenario), 151, seed=4)
        assert trace.tau is not None and len(trace.rounds[-1].state) > 140
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        write_trace(trace, first, digest="abc123")
        loaded, digest = read_trace(first)
        write_trace(loaded, second, digest=digest)
        assert first.read_text() == second.read_text() == oracle.dump_trace(trace, "abc123")

    def test_round_cap(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.scenario")  # past the cap the file is never opened
        rows = (("1000001", "1"), ("500001", "2"), ("1" + "0" * 30, "3"), ("0", "1000001"), ("-5", "1000001"))
        for horizon, episodes in rows:  # an episode of horizon 0 or less still counts as one round
            asked = max(int(horizon), 1) * int(episodes)
            argv = ["simulate", "--scenario", missing, "--horizon", horizon, "--episodes", episodes]
            assert _run(capsys, *argv) == (
                2, "", f"error: simulate caps recorded rounds at 1000000; asked for {asked}\n"
            )
        for horizon, episodes in (("500000", "2"), ("0", "1000000")):
            argv = ["simulate", "--scenario", missing, "--horizon", horizon, "--episodes", episodes]
            at_cap = _run(capsys, *argv)
            assert at_cap[:2] == (1, "") and "missing.scenario" in at_cap[2]
        argv = ["simulate", "--scenario", missing, "--horizon", "1" + "0" * 30, "--episodes", "0"]
        assert _run(capsys, *argv) == (1, "", "error: --episodes must be at least 1\n")


class TestBroadcast:
    def test_min_prints_three(self, capsys):
        code, out, _ = _run(capsys, "broadcast-min", "--k", "2", "--L", "2")
        assert code == 0
        assert out == "3\n"

    def test_gen_reports_tight_sequence(self, capsys):
        code, out, _ = _run(capsys, "broadcast-gen", "--k", "2", "--L", "3")
        assert code == 0
        data = json.loads(out)
        assert len(data["tight_sequence"]) == 5
        assert data["tight_sequence_succeeds"] is True


class TestReach:
    def test_diamond_family(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys, "reach", "--mind", str(fixtures_dir / "diamond.mind"), "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 5
        assert ["a", "b", "c", "d"] in data["states"]
        assert data["learning_space"]["union_closed"] is True

    @pytest.mark.parametrize("name", ["diamond", "arithmetic"])
    def test_json_flags_are_not_rechecked(self, capsys, fixtures_dir, monkeypatch, name):
        # The flags hold by theorem (enumerate_reachable); reach runs no check.
        def checked(*args):
            raise AssertionError("reach ran the learning-space check")

        monkeypatch.setattr("noesis.reachability._accessible_union_closed", checked)
        code, out, _ = _run(
            capsys, "reach", "--mind", str(fixtures_dir / f"{name}.mind"), "--format", "json"
        )
        assert code == 0
        golden = Path(__file__).resolve().parent / "golden" / f"reach-{name}.json"
        assert out.encode() == golden.read_bytes()

    def test_cap_flag_gives_exit_two(self, capsys, fixtures_dir):
        code, _, err = _run(
            capsys, "reach", "--mind", str(fixtures_dir / "diamond.mind"), "--cap", "2"
        )
        assert code == 2
        assert "cap" in err or "states" in err

    def test_cap_zero_refuses_a_one_state_family(self, capsys, tmp_path):
        path = tmp_path / "m.mind"
        path.write_text('{"concepts": ["a", "b"], "axioms": ["a"], "rules": []}', encoding="utf-8")
        assert _run(capsys, "reach", "--mind", str(path), "--cap", "0") == (
            2, "", "error: reachable family exceeds 0 states; raise the cap with --cap or NOESIS_NODE_CAP\n"
        )

    def test_env_cap_override(self, capsys, fixtures_dir, monkeypatch):
        monkeypatch.setenv("NOESIS_NODE_CAP", "2")
        code, _, _ = _run(capsys, "reach", "--mind", str(fixtures_dir / "diamond.mind"))
        assert code == 2

    @staticmethod
    def _csv(capsys, tmp_path, mind: dict) -> str:
        path = tmp_path / "m.mind"
        path.write_text(json.dumps(mind), encoding="utf-8")
        code, out, _ = _run(capsys, "reach", "--mind", str(path), "--format", "csv")
        assert code == 0
        return out

    @staticmethod
    def _written_by_csv_writer(rows: list[str]) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows([row] for row in ["state", *rows])
        return buf.getvalue()

    def test_csv_quotes_rows_with_commas_and_quotes(self, capsys, tmp_path):
        mind = {
            "concepts": ["r", "x,y", 'q"z'],
            "axioms": ["r"],
            "rules": [{"prereqs": ["r"], "target": "x,y"}, {"prereqs": ["r"], "target": 'q"z'}],
        }
        out = self._csv(capsys, tmp_path, mind)
        rows = ["r", 'q"z|r', "r|x,y", 'q"z|r|x,y']
        assert list(csv.reader(io.StringIO(out))) == [[row] for row in ["state", *rows]]
        assert out == self._written_by_csv_writer(rows)

    def test_csv_writes_the_empty_state_as_an_empty_field(self, capsys, tmp_path):
        mind = {
            "concepts": ["a", "b"],
            "axioms": [],
            "rules": [{"prereqs": [], "target": "a"}, {"prereqs": ["a"], "target": "b"}],
        }
        out = self._csv(capsys, tmp_path, mind)
        rows = ["", "a", "a|b"]
        assert list(csv.reader(io.StringIO(out))) == [[row] for row in ["state", *rows]]
        assert out == self._written_by_csv_writer(rows)

    def test_csv_of_plain_labels_is_unquoted(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys, "reach", "--mind", str(fixtures_dir / "diamond.mind"), "--format", "csv"
        )
        assert code == 0
        rows = ["a", "a|b", "a|c", "a|b|c", "a|b|c|d"]
        assert out == "\n".join(["state", *rows]) + "\n" == self._written_by_csv_writer(rows)

    def test_csv_refuses_a_label_holding_the_separator(self, capsys, tmp_path):
        # {a, b, o} and {a|b, o} would both be written a|b|o.
        mind = {
            "concepts": ["o", "a|b", "a", "b"],
            "axioms": ["o"],
            "rules": [{"prereqs": ["o"], "target": c} for c in ("a|b", "a", "b")],
        }
        path = tmp_path / "m.mind"
        path.write_text(json.dumps(mind), encoding="utf-8")
        code, out, err = _run(capsys, "reach", "--mind", str(path), "--format", "csv")
        assert (code, out) == (1, "")
        assert "'a|b'" in err and "--format json" in err
        code, out, _ = _run(capsys, "reach", "--mind", str(path), "--format", "json")
        assert code == 0
        states = json.loads(out)["states"]
        assert ["a", "b", "o"] in states and ["a|b", "o"] in states

    def test_json_of_labels_needing_escapes_is_json_dumps(self, capsys, tmp_path):
        labels = ["o", 'q"z', "x\\y", "é", "日本", "\U0001f600", "a,b"]
        mind = {
            "concepts": labels,
            "axioms": ["o"],
            "rules": [{"prereqs": [a], "target": b} for a, b in zip(labels, labels[1:4])]
            + [{"prereqs": ["o"], "target": c} for c in labels[4:]],
        }
        path = tmp_path / "m.mind"
        path.write_text(json.dumps(mind), encoding="utf-8")
        code, out, _ = _run(capsys, "reach", "--mind", str(path), "--format", "json")
        assert code == 0
        family = noesis.enumerate_reachable(noesis.fileio.load_mind(path))
        want = {
            "states": [sorted(s) for s in family.states()],
            "minimum": ["o"],
            "maximum": sorted(labels),
            "count": len(family),
            "learning_space": dict.fromkeys(
                ["has_axiom_floor", "accessible", "union_closed", "shifted_antimatroid"], True
            ),
        }
        assert out == json.dumps(want, indent=2) + "\n"
        for target in labels:
            code, out, _ = _run(capsys, "distance", "--mind", str(path), "--target", target)
            assert code == 0
            chain = noesis.shortest_chain(noesis.fileio.load_mind(path), target)
            want = {"target": target, "reachable": True, "distance": len(chain) - 1,
                    "chain": [sorted(s) for s in chain]}
            assert out == json.dumps(want, indent=2) + "\n"


_CAPPED_COMMANDS = {
    "reach": ("reach", "--mind", "diamond.mind"),
    "audit": ("audit", "--scenario", "star.scenario", "--horizon", "2"),
    "broadcast-min": ("broadcast-min", "--k", "2", "--L", "2"),
}


@pytest.mark.parametrize("value, exit_code", [(" 3", 1), ("-1", 1), ("abc", 1), ("2", 2)])
@pytest.mark.parametrize("command", sorted(_CAPPED_COMMANDS))
def test_env_cap_is_read_alike_by_every_command(
    capsys, fixtures_dir, monkeypatch, command, value, exit_code
):
    argv = [
        str(fixtures_dir / arg) if arg.endswith((".mind", ".scenario")) else arg
        for arg in _CAPPED_COMMANDS[command]
    ]
    monkeypatch.setenv("NOESIS_NODE_CAP", value)
    from_env = _run(capsys, *argv)
    monkeypatch.delenv("NOESIS_NODE_CAP")
    from_flag = _run(capsys, *argv, "--cap", value)
    for name, (code, out, err) in (("NOESIS_NODE_CAP", from_env), ("--cap", from_flag)):
        assert code == exit_code
        assert out == ""
        if exit_code == 1:
            assert name in err
        else:
            assert "--cap" in err and "NOESIS_NODE_CAP" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("broadcast-min", "--k", "10000", "--L", "3"),
        ("value", "--scenario", "star.scenario", "--horizon", "1", "--exact"),
        ("allocate", "--N", "1000001", "--B", "1", "--L", "1"),
        ("simulate", "--scenario", "star.scenario", "--horizon", "1000001"),
    ],
)
def test_cap_no_knob_raises_names_no_knob(capsys, fixtures_dir, argv):
    argv = [str(fixtures_dir / arg) if arg.endswith(".scenario") else arg for arg in argv]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "--cap" not in err and "NOESIS_NODE_CAP" not in err


def test_exact_cap_error_names_the_count(capsys, fixtures_dir):
    argv = ["value", "--scenario", str(fixtures_dir / "star.scenario"), "--horizon", "1", "--exact"]
    assert _run(capsys, *argv) == (
        2, "", "error: exact search caps targets at 3; the scenario has 4\n"
    )


def _wide_scenario(path: Path) -> Path:
    """Axiom ``a``, 22 concepts unlocked by ``a``, and target ``g`` needing 8 of them.

    Its 23 tokens put it over the exact search's alphabet cap, and the
    chain to ``g`` is a costly search.
    """
    wide = [f"p{i}" for i in range(22)]
    data = {
        "concepts": ["a", *wide, "g"],
        "axioms": ["a"],
        "rules": [{"prereqs": ["a"], "target": c} for c in wide]
        + [{"prereqs": wide[:8], "target": "g"}],
        "signals": [{"token": f"z_{c}", "target": c} for c in [*wide, "g"]],
        "targets": ["g"],
        "prior": [1.0],
    }
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "scenario, horizon, err",
    [
        ("star.scenario", "1", "caps targets at 3; the scenario has 4"),
        ("wide.scenario", "1", "caps the alphabet at 3; the scenario has 23"),
        ("arithmetic.scenario", "4", "caps the horizon at 3; asked for 4"),
    ],
)
def test_exact_cap_refuses_before_the_chain_search(
    capsys, fixtures_dir, tmp_path, monkeypatch, scenario, horizon, err
):
    from noesis import teaching

    calls = []
    real = teaching._first_hit_chains
    monkeypatch.setattr(teaching, "_first_hit_chains", lambda *a: calls.append(a) or real(*a))
    if scenario == "wide.scenario":
        path = _wide_scenario(tmp_path / scenario)
    else:
        path = fixtures_dir / scenario
    argv = ["value", "--scenario", str(path), "--horizon", horizon, "--exact"]
    assert _run(capsys, *argv) == (2, "", f"error: exact search {err}\n")
    assert calls == []


def test_allocate_cap_error_names_the_count(capsys):
    learners = "1" + "0" * 400
    assert _run(capsys, "allocate", "--N", learners, "--B", "1", "--L", "1") == (
        2, "", f"error: allocation caps learners at 1000000; asked for {learners}\n"
    )


def test_broadcast_cap_error_names_the_count(capsys):
    assert _run(capsys, "broadcast-min", "--k", "10000", "--L", "3") == (
        2, "", "error: broadcast instance caps concepts at 10000; k=10000, L=3 needs 20002\n"
    )


@pytest.mark.parametrize(
    "argv, hashes",
    [
        (("audit", "--horizon", "2"), False),
        (("value", "--horizon", "2"), False),
        (("simulate", "--horizon", "2", "--format", "csv"), False),
        (("simulate", "--horizon", "2"), True),
    ],
)
def test_scenario_digest_only_where_printed(capsys, fixtures_dir, monkeypatch, argv, hashes):
    from noesis import fileio

    calls = []
    real = fileio.scenario_digest
    monkeypatch.setattr(fileio, "scenario_digest", lambda *a: calls.append(a) or real(*a))
    code, out, _ = _run(capsys, *argv, "--scenario", str(fixtures_dir / "star.scenario"))
    assert code == 0 and out
    assert bool(calls) == hashes


def test_env_cap_leaves_audit_global_bound_alone(capsys, fixtures_dir, monkeypatch):
    # The 6-node tree fits --cap; the global bound enumerates no family.
    monkeypatch.setenv("NOESIS_NODE_CAP", "3")
    code, out, _ = _run(
        capsys,
        "audit",
        "--scenario", str(fixtures_dir / "star.scenario"),
        "--horizon", "2",
        "--cap", "100",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_capacity_reads_no_cap(capsys, fixtures_dir, monkeypatch):
    argv = ["capacity", "--scenario", str(fixtures_dir / "star.scenario")]
    plain = _run(capsys, *argv)
    monkeypatch.setenv("NOESIS_NODE_CAP", "3")
    assert _run(capsys, *argv) == plain
    assert plain[0] == 0


def test_capacity_has_no_cap_flag(capsys, fixtures_dir):
    code, out, err = _run(
        capsys, "capacity", "--scenario", str(fixtures_dir / "star.scenario"), "--cap", "5"
    )
    assert (code, out) == (1, "")
    assert "--cap" in err


_HORIZON_CAPACITY = 2.32192809489  # log2(5): all five tokens parse at the horizon


@pytest.mark.parametrize(
    "state, expected",
    [
        (None, {"state": ["a"], "capacity_bits": 1.0, "max_capacity_bits": _HORIZON_CAPACITY}),
        ("a,b", {"state": ["a", "b"], "capacity_bits": _HORIZON_CAPACITY,
                 "max_capacity_bits": _HORIZON_CAPACITY}),
    ],
)
def test_capacity_output_unchanged(capsys, fixtures_dir, state, expected):
    argv = ["capacity", "--scenario", str(fixtures_dir / "star.scenario")]
    code, out, _ = _run(capsys, *(argv if state is None else argv + ["--state", state]))
    assert code == 0
    assert out == json.dumps(expected, indent=2) + "\n"


def _chain(n: int) -> dict:
    concepts = [f"c{i}" for i in range(n)]
    return {
        "concepts": concepts,
        "axioms": ["c0"],
        "rules": [{"prereqs": [a], "target": b} for a, b in zip(concepts, concepts[1:])],
    }


def _assert_too_deep(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: input nests too deep")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_deep_derivation_passes(capsys, tmp_path):
    # The tree's dicts and the JSON writer keep their own stacks; only reading it back recurses.
    path = tmp_path / "chain.mind"
    path.write_text(json.dumps(_chain(600)))
    code, out, err = _run(capsys, "derive", "--mind", str(path), "--target", "c599")
    assert (code, err) == (0, "")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        result = json.loads(out)
    finally:
        sys.setrecursionlimit(limit)
    depth, node = 1, result["tree"]
    while "children" in node:
        (node,) = node["children"]
        depth += 1
    assert (depth, node) == (600, {"concept": "c0", "base": True})
    assert len(result["curriculum"]) == 599


def test_deeply_nested_input_exit_two(capsys, tmp_path):
    path = tmp_path / "nested.mind"
    path.write_text('{"concepts": ' + "[" * 100_000 + "]" * 100_000 + ', "axioms": [], "rules": []}')
    _assert_too_deep(*_run(capsys, "reach", "--mind", str(path)))


@pytest.mark.parametrize("n", [990, 1500])
def test_deep_history_tree_passes(capsys, tmp_path, n):
    # The tree walk keeps its own stack, so depth is bounded by the node cap.
    data = _chain(n)
    data["signals"] = [{"token": f"z{i}", "target": f"c{i}"} for i in range(n)]
    data["targets"], data["prior"] = [f"c{n - 1}"], [1]
    path = tmp_path / "chain.scenario"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "audit", "--scenario", str(path), "--horizon", str(n))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["passed"] is True
    assert report["nodes"] == n + 1


class TestRepeatedCalls:
    """The parser is built once per process; no call may see another's arguments."""

    def test_bad_usage_after_a_good_call(self, capsys, fixtures_dir):
        mind = str(fixtures_dir / "arithmetic.mind")
        assert _run(capsys, "closure", "--mind", mind)[0] == 0
        code, out, err = _run(capsys, "closure")
        assert (code, out) == (1, "")
        assert "--mind" in err
        assert _run(capsys, "closure", "--mind", mind, "--bogus")[0] == 1
        assert _run(capsys, "closure", "--mind", mind)[0] == 0

    def test_cap_default_returns_when_omitted(self, capsys, fixtures_dir, monkeypatch):
        monkeypatch.delenv("NOESIS_NODE_CAP", raising=False)
        argv = ["audit", "--scenario", str(fixtures_dir / "star.scenario"), "--horizon", "2"]
        code, _, err = _run(capsys, *argv, "--cap", "3")
        assert code == 2 and "3 nodes" in err
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and json.loads(out)["nodes"] == 6

    def test_environment_cap_read_on_each_call(self, capsys, fixtures_dir, monkeypatch):
        argv = ["audit", "--scenario", str(fixtures_dir / "star.scenario"), "--horizon", "2"]
        monkeypatch.setenv("NOESIS_NODE_CAP", "3")
        assert _run(capsys, *argv)[0] == 2
        monkeypatch.setenv("NOESIS_NODE_CAP", "6")
        assert _run(capsys, *argv)[0] == 0
        monkeypatch.setenv("NOESIS_NODE_CAP", "5")
        assert _run(capsys, *argv)[0] == 2
        monkeypatch.delenv("NOESIS_NODE_CAP")
        assert _run(capsys, *argv)[0] == 0


class TestQueries:
    def test_closure(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys, "closure", "--mind", str(fixtures_dir / "arithmetic.mind")
        )
        assert code == 0
        data = json.loads(out)
        assert data["closure"] == ["a", "b", "c", "d"]
        assert data["iterates"] == [["a"], ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"]]

    def test_derive(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "derive",
            "--mind", str(fixtures_dir / "arithmetic.mind"),
            "--target", "d",
        )
        assert code == 0
        data = json.loads(out)
        assert data["derivable"] is True
        assert [step["target"] for step in data["curriculum"]] == ["b", "c", "d"]

    def test_distance(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "distance",
            "--mind", str(fixtures_dir / "arithmetic.mind"),
            "--target", "d",
        )
        assert code == 0
        assert json.loads(out)["distance"] == 3

    def test_capacity(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys, "capacity", "--scenario", str(fixtures_dir / "star.scenario")
        )
        assert code == 0
        data = json.loads(out)
        assert data["capacity_bits"] == 1.0
        assert data["max_capacity_bits"] == pytest.approx(2.321928094887, abs=1e-9)

    def test_audit(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "audit",
            "--scenario", str(fixtures_dir / "star.scenario"),
            "--horizon", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert len(data["laws"]) == 8

    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    @pytest.mark.parametrize("horizon", [2, 3, 4])
    def test_audit_with_subnormal_prior(self, capsys, fixtures_dir, tmp_path, tiny, horizon):
        # The product of two subnormal marginals underflows to 0.0 in the MI terms.
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["prior"] = [tiny, 0.5, 0.25, 0.25]
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, "audit", "--scenario", str(path), "--horizon", str(horizon))
        assert (code, err) == (0, "")
        assert json.loads(out)["passed"] is True

    def test_value(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "value",
            "--scenario", str(fixtures_dir / "star.scenario"),
            "--horizon", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["upper"] == 1.0 and data["lower"] == 0.0

    def test_value_with_no_target_in_reach(self, capsys, fixtures_dir):
        code, out, _ = _run(
            capsys,
            "value",
            "--scenario", str(fixtures_dir / "star.scenario"),
            "--horizon", "0",
        )
        assert code == 0
        assert '"upper": 0.0,' in out and '"lower": 0.0,' in out

    def test_allocate(self, capsys):
        code, out, _ = _run(capsys, "allocate", "--N", "4", "--B", "5", "--L", "2")
        assert code == 0
        data = json.loads(out)
        assert data["completed"] == 2
        assert data["even_split_completed"] == 0

    def test_value_past_the_largest_float_horizon(self, capsys, fixtures_dir):
        # Past 10^308 the tail bound 1 - E/t rounds to 1.0, as it does at 10^300.
        scenario = str(fixtures_dir / "star.scenario")
        huge = "1" + "0" * 400
        code, out, err = _run(capsys, "value", "--scenario", scenario, "--horizon", huge)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"t": int(huge), "upper": 1.0, "lower": 1.0, "exact": None}
        code, below, _ = _run(capsys, "value", "--scenario", scenario, "--horizon", "1" + "0" * 300)
        assert code == 0
        assert below.replace("0" * 300, "0" * 400) == out

    def test_allocate_budget_past_the_largest_float_exit_one(self, capsys):
        budget = "1" + "0" * 400
        code, out, err = _run(capsys, "allocate", "--N", "2", "--B", budget, "--L", "1")
        assert (code, out) == (1, "")
        assert err == f"error: budget {budget} is too large: its even split has no finite float value\n"


class TestErrors:
    def test_missing_file_exit_one(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "closure", "--mind", str(tmp_path / "absent.mind")
        )
        assert code == 1
        assert "error" in err

    def test_unknown_concept_named_alike_under_any_hash_seed(self, fixtures_dir):
        # ``--state`` becomes a frozenset, which iterates in hash order; the
        # error names its least unknown label.
        argv = [
            sys.executable, "-m", "noesis.cli", "capacity",
            "--scenario", str(fixtures_dir / "star.scenario"), "--state", "a,b,c,d",
        ]
        src = str(Path(noesis.__file__).resolve().parent.parent)
        runs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0] == runs[1] == (1, "", "error: unknown concept 'c'\n")

    def test_bad_usage_exit_one(self, capsys):
        code, _, err = _run(capsys, "simulate")
        assert code == 1

    @pytest.mark.parametrize("name", ["absent.scenario", "arithmetic.scenario"])
    def test_episodes_checked_before_the_scenario_is_read(self, capsys, fixtures_dir, tmp_path, name):
        # Neither the missing file's error nor the fixture's normalization note.
        path = tmp_path / name if name.startswith("absent") else fixtures_dir / name
        argv = ["simulate", "--scenario", str(path), "--horizon", "1", "--episodes", "0"]
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: --episodes must be at least 1\n")

    def test_invalid_scenario_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("{ not json")
        code, _, err = _run(
            capsys, "simulate", "--scenario", str(path), "--seed", "1", "--horizon", "1"
        )
        assert code == 1
        assert "line" in err

    @pytest.mark.parametrize("command", ["simulate", "audit", "value"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_prior_exit_one(self, capsys, fixtures_dir, tmp_path, command, bad):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["prior"] = [bad, 1, 1, 1]
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        argv = [command, "--scenario", str(path), "--horizon", "2"]
        code, out, err = _run(capsys, *(argv + ["--seed", "1"] if command == "simulate" else argv))
        assert (code, out) == (1, "")
        assert "field 'prior'" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "audit", "value", "capacity"])
    def test_non_string_target_exit_one(self, capsys, fixtures_dir, tmp_path, command):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["targets"] = [["d1"], "d2", "d3", "d4"]
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        argv = [command, "--scenario", str(path)]
        if command != "capacity":
            argv += ["--horizon", "2"]
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "field 'targets'" in err and "Traceback" not in err

    def test_audit_past_the_script_exit_one(self, capsys, fixtures_dir):
        # The kernel error of the first node past the script, in pre-order.
        argv = ["audit", "--scenario", str(fixtures_dir / "arithmetic.scenario"), "--horizon", "4"]
        assert _run(capsys, *argv) == (1, "", "error: script row for 'b' exhausted at round 4\n")

    def test_unwritable_out_exit_one(self, capsys, fixtures_dir, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = _run(
            capsys, "closure", "--mind", str(fixtures_dir / "arithmetic.mind"), "--out", str(target)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(target) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("top", ['"concepts"', "42", "[1, 2]"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["closure", "--mind"],
            ["derive", "--target", "b", "--mind"],
            ["reach", "--mind"],
            ["distance", "--target", "b", "--mind"],
            ["simulate", "--seed", "1", "--horizon", "1", "--scenario"],
            ["audit", "--horizon", "1", "--scenario"],
        ],
    )
    def test_top_level_not_an_object_exit_one(self, capsys, tmp_path, argv, top):
        path = tmp_path / "f.json"
        path.write_text(top)
        assert _run(capsys, *argv, str(path)) == (1, "", f"error: {path}: top level must be an object\n")

    def test_empty_signal_list_exit_one(self, capsys, fixtures_dir, tmp_path):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["signals"] = []
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, "value", "--scenario", str(path), "--horizon", "2")
        assert (code, out, err) == (1, "", f"error: {path}: signal alphabet must be non-empty\n")

    @pytest.mark.parametrize("command", ["simulate", "audit", "value"])
    def test_null_token_spelling_exit_one(self, capsys, fixtures_dir, tmp_path, command):
        # "_null_" is how traces spell the null observation, so no signal may use it.
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["signals"][1]["token"] = "_null_"
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        argv = [command, "--scenario", str(path), "--horizon", "2"]
        code, out, err = _run(capsys, *(argv + ["--seed", "1"] if command == "simulate" else argv))
        want = f"error: {path}: signals[1]: token '_null_' is reserved for the null observation\n"
        assert (code, out, err) == (1, "", want)

    def test_prior_sum_overflow_exit_one(self, capsys, fixtures_dir, tmp_path):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["prior"] = [1e308, 1e308, 0, 0]
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, "value", "--scenario", str(path), "--horizon", "2")
        assert (code, out, err) == (1, "", f"error: {path}: field 'prior' overflows when summed\n")

    def test_unknown_row_token_exit_one(self, capsys, fixtures_dir, tmp_path):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["strategy"] = {"kind": "broadcast", "row": ["z_b", "nope"]}
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, "value", "--scenario", str(path), "--horizon", "2")
        assert (code, out) == (1, "")
        assert "strategy.row[1]" in err
