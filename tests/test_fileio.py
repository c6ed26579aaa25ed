from __future__ import annotations

import json

import pytest

import helpers
from noesis import (
    FormatError,
    Scenario,
    SignalSystem,
    direct_strategy,
    load_mind,
    load_scenario,
    load_scenario_bundle,
    read_trace,
    run_episode,
    scenario_digest,
    trace_to_csv,
    understanding_horizon,
    write_trace,
)
from noesis.cli import run_cli
from noesis.fileio import dump_json, trace_from_dict, trace_to_dict
from noesis.teaching import EpisodeTrace, Round


class TestLoadMind:
    def test_diamond_fixture(self, fixtures_dir):
        mind = load_mind(fixtures_dir / "diamond.mind")
        assert understanding_horizon(mind) == {"a", "b", "c", "d"}

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "broken.mind"
        path.write_text('{\n  "concepts": [,]\n}')
        with pytest.raises(FormatError, match="line 2"):
            load_mind(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "m.mind"
        path.write_text(json.dumps({"concepts": ["a"], "axioms": ["a"]}))
        with pytest.raises(FormatError, match="rules"):
            load_mind(path)

    def test_invalid_rule_rejected(self, tmp_path):
        path = tmp_path / "m.mind"
        path.write_text(
            json.dumps(
                {
                    "concepts": ["a", "b"],
                    "axioms": ["a"],
                    "rules": [{"prereqs": ["b"], "target": "b"}],
                }
            )
        )
        with pytest.raises(FormatError, match="degenerate"):
            load_mind(path)

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"concepts": ["a", ["b"]]}, "concepts"),
            ({"axioms": [["a"]]}, "axioms"),
            ({"rules": [{"prereqs": [["a"]], "target": "b"}]}, r"rules\[0\]: field 'prereqs'"),
            ({"rules": [{"prereqs": ["a"], "target": "b"}, {"prereqs": [1], "target": "b"}]},
             r"rules\[1\]: field 'prereqs'"),
            ({"rules": [{"prereqs": [1], "target": "b"}, "b"]}, r"rules\[0\]: field 'prereqs'"),
        ],
    )
    def test_non_string_labels_named(self, tmp_path, change, field):
        data = {"concepts": ["a", "b"], "axioms": ["a"], "rules": [{"prereqs": ["a"], "target": "b"}]}
        path = tmp_path / "m.mind"
        path.write_text(json.dumps({**data, **change}))
        with pytest.raises(FormatError, match=field):
            load_mind(path)

    def test_non_utf8_file_named(self, tmp_path, capsys):
        path = tmp_path / "bad.mind"
        path.write_bytes(b'{"concepts": ["a", "b\xff"], "axioms": ["a"], "rules": []}')
        with pytest.raises(FormatError) as caught:
            load_mind(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert run_cli(["closure", "--mind", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


def _star_with(tmp_path, fixtures_dir, **fields):
    data = json.loads((fixtures_dir / "star.scenario").read_text())
    data.update(fields)
    path = tmp_path / "s.scenario"
    path.write_text(json.dumps(data))
    return path


class TestLoadScenario:
    def test_star_fixture(self, fixtures_dir):
        bundle = load_scenario_bundle(fixtures_dir / "star.scenario")
        scenario = bundle.scenario
        assert scenario.targets == ("d1", "d2", "d3", "d4")
        assert scenario.prior == (0.25, 0.25, 0.25, 0.25)
        assert bundle.strategy.kind == "direct"
        assert bundle.notes == ()

    def test_arithmetic_fixture_normalizes_prior(self, fixtures_dir):
        bundle = load_scenario_bundle(fixtures_dir / "arithmetic.scenario")
        assert bundle.scenario.prior == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
        assert any("normalized" in note for note in bundle.notes)
        assert bundle.strategy.kind == "scripted"

    def test_target_outside_horizon_named(self, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text(
            json.dumps(
                {
                    "concepts": ["a", "b", "e"],
                    "axioms": ["a"],
                    "rules": [{"prereqs": ["a"], "target": "b"}],
                    "signals": [{"token": "z_e", "target": "e"}, {"token": "z_b", "target": "b"}],
                    "targets": ["e"],
                    "prior": [1],
                    "strategy": {"kind": "direct"},
                }
            )
        )
        with pytest.raises(FormatError, match="horizon"):
            load_scenario(path)

    def test_non_string_target_named(self, tmp_path, fixtures_dir):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["targets"] = [["d1"], "d2", "d3", "d4"]
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match="field 'targets' must hold only strings"):
            load_scenario_bundle(path)

    def test_signal_outside_concept_space_named(self, tmp_path, fixtures_dir):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["signals"].append({"token": "z_x", "target": "x"})
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match=r"signals\[5\]: unknown concept 'x'"):
            load_scenario_bundle(path)

    @pytest.mark.parametrize(
        "extra, error",
        [
            ([{"token": "z_x", "target": "x"}, "z_y"], r"signals\[5\]: unknown concept 'x'$"),
            ([{"token": "_null_", "target": "b"}, 3], r"signals\[5\]: token '_null_' is reserved"),
            ([{"target": "b"}, "z_y"], r"signals\[5\]: missing field 'token'$"),
            ([{"token": "z_y", "target": ["b"]}, "z_y"], r"signals\[5\]: field 'target' must be str$"),
            ([{"token": "z_y", "target": "b"}, "z_y"], r"signals\[6\] must be an object$"),
        ],
        ids=["unknown concept", "null token", "no token", "non-string target", "not an object"],
    )
    def test_signal_errors_named_in_list_order(self, tmp_path, fixtures_dir, extra, error):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        path = _star_with(tmp_path, fixtures_dir, signals=data["signals"] + extra)
        with pytest.raises(FormatError, match=error):
            load_scenario_bundle(path)

    def test_unknown_strategy_kind(self, tmp_path, fixtures_dir):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["strategy"] = {"kind": "telepathy"}
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match="telepathy"):
            load_scenario_bundle(path)

    @pytest.mark.parametrize(
        "bad",
        ["nan", "inf", "0.25", float("nan"), float("inf"), -float("inf"), True, None, 10**400],
        ids=["nan-str", "inf-str", "num-str", "nan", "inf", "-inf", "bool", "null", "huge-int"],
    )
    def test_prior_must_be_finite_numbers(self, tmp_path, fixtures_dir, bad):
        path = _star_with(tmp_path, fixtures_dir, prior=[bad, 1, 1, 1])
        with pytest.raises(FormatError, match="field 'prior'"):
            load_scenario_bundle(path)

    @pytest.mark.parametrize(
        "prior", [[1e308, 1e308, 0, 0], [1e308, 1e308, 1e308, 1e308], [1.7e308, 1, 1, 1e308]]
    )
    def test_prior_sum_overflow_named(self, tmp_path, fixtures_dir, prior):
        # Each weight is finite, but their sum is inf, which would normalize every weight to 0.0.
        path = _star_with(tmp_path, fixtures_dir, prior=prior)
        with pytest.raises(FormatError, match=r"field 'prior' overflows when summed$"):
            load_scenario_bundle(path)

    def test_large_finite_prior_sum_is_normalized(self, tmp_path, fixtures_dir):
        path = _star_with(tmp_path, fixtures_dir, prior=[8e307, 8e307, 0, 0])
        bundle = load_scenario_bundle(path)
        assert bundle.scenario.prior == (0.5, 0.5, 0.0, 0.0)
        assert bundle.notes == ("prior weights sum to 1.6e+308; normalized to 1",)

    def test_null_token_spelling_rejected(self, tmp_path, fixtures_dir):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["signals"].append({"token": "_null_", "target": "b"})
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        reserved = r"signals\[5\]: token '_null_' is reserved for the null observation"
        with pytest.raises(FormatError, match=reserved):
            load_scenario_bundle(path)

    def test_prior_accepts_ints_and_floats(self, tmp_path, fixtures_dir):
        path = _star_with(tmp_path, fixtures_dir, prior=[1, 1.0, 2, 0])
        assert load_scenario_bundle(path).scenario.prior == (0.25, 0.25, 0.5, 0.0)

    @pytest.mark.parametrize(
        "strategy, field",
        [
            ({"kind": "broadcast", "row": [1, 2, 3]}, r"strategy\.row\[0\]"),
            ({"kind": "broadcast", "row": ["z_b", "nope"]}, r"strategy\.row\[1\]: unknown signal token 'nope'"),
            ({"kind": "broadcast", "row": "z_b"}, "field 'row'"),
            (
                {"kind": "scripted", "rows": {"d1": ["z_b", "z_1"], "d2": ["z_b", 2]}},
                r"strategy\.rows\['d2'\]\[1\]",
            ),
            (
                {"kind": "scripted", "rows": {"d1": ["nope"]}},
                r"strategy\.rows\['d1'\]\[0\]: unknown signal token 'nope'",
            ),
            ({"kind": "scripted", "rows": {"d1": "z_b"}}, r"strategy\.rows\['d1'\] must be a token list"),
            (
                {"kind": "scripted", "rows": {"d1": ["nope"], "d2": "z_b"}},
                r"strategy\.rows\['d1'\]\[0\]: unknown signal token 'nope'",
            ),
        ],
    )
    def test_strategy_rows_checked_against_alphabet(self, tmp_path, fixtures_dir, strategy, field):
        path = _star_with(tmp_path, fixtures_dir, strategy=strategy)
        with pytest.raises(FormatError, match=field):
            load_scenario_bundle(path)

    def test_valid_rows_load(self, tmp_path, fixtures_dir):
        path = _star_with(tmp_path, fixtures_dir, strategy={"kind": "broadcast", "row": ["z_b", "z_1"]})
        assert load_scenario_bundle(path).strategy.row == ("z_b", "z_1")


class TestDigest:
    def test_stable_across_loads(self, fixtures_dir):
        a = load_scenario_bundle(fixtures_dir / "star.scenario")
        b = load_scenario_bundle(fixtures_dir / "star.scenario")
        assert a.digest == b.digest

    def test_sensitive_to_content(self, fixtures_dir):
        bundle = load_scenario_bundle(fixtures_dir / "star.scenario")
        other = load_scenario_bundle(fixtures_dir / "arithmetic.scenario")
        assert bundle.digest != other.digest
        assert scenario_digest(bundle.scenario) != scenario_digest(other.scenario)


class TestTraces:
    def test_round_trip(self, tmp_path, star_scenario):
        strategy = direct_strategy(star_scenario)
        trace = run_episode(star_scenario, strategy, 2, seed=7)
        path = tmp_path / "trace.json"
        write_trace(trace, path, digest="abc123")
        loaded, digest = read_trace(path)
        assert digest == "abc123"
        assert (loaded.theta, loaded.seed, loaded.tau, loaded.tau_id) == (
            trace.theta,
            trace.seed,
            trace.tau,
            trace.tau_id,
        )
        for got, want in zip(loaded.rounds, trace.rounds):
            assert (got.t, got.emitted, got.parsed, got.state) == (
                want.t,
                want.emitted,
                want.parsed,
                want.state,
            )
            assert got.belief == pytest.approx(want.belief, abs=1e-9)
            assert got.capacity_bits == pytest.approx(want.capacity_bits, abs=1e-9)
        # the on-disk representation is a fixed point: write(read(f)) == f
        path2 = tmp_path / "again.json"
        write_trace(loaded, path2, digest="abc123")
        assert path.read_bytes() == path2.read_bytes()

    def test_null_observation_round_trip(self, star_scenario):
        from noesis import broadcast_strategy

        strategy = broadcast_strategy(("z_1", "z_b"))
        trace = run_episode(star_scenario, strategy, 2, seed=3)
        assert trace.rounds[0].parsed is None  # the first token is unparseable
        again, _ = trace_from_dict(trace_to_dict(trace))
        assert again == trace

    def test_writers_refuse_a_parsed_null_spelling(self):
        # A token spelled like the null observation would read back as None,
        # so read-then-write would not be a fixed point; the writers refuse it.
        mind = helpers.make_mind(["a", "b", "c"], ["a"], [(["a"], "b"), (["b"], "c")])
        system = SignalSystem.from_pairs([("_null_", "b"), ("z_c", "c")])
        scenario = Scenario(mind=mind, system=system, targets=("c",), prior=(1.0,))
        trace = run_episode(scenario, direct_strategy(scenario), 2, seed=3)
        assert trace.rounds[0].parsed == "_null_"
        refused = "parsed token '_null_' would read back as the null observation"
        with pytest.raises(FormatError, match=refused):
            trace_to_dict(trace)
        with pytest.raises(FormatError, match=refused):
            trace_to_csv([trace])

    def test_csv_export(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        trace = run_episode(star_scenario, strategy, 2, seed=7)
        text = trace_to_csv([trace])
        lines = text.strip().split("\n")
        assert lines[0].startswith("seed,theta,t,z,y,state,belief")
        assert len(lines) == 3

    def test_csv_belief_cells_keep_signed_zeros(self):
        first = Round(1, "z_b", None, frozenset({"a"}), (-0.0, 0.5, 0.5, 0.0), 1.0, 0.5)
        second = Round(2, "z_b", "z_b", frozenset({"a", "b"}), (0.0, -0.0, 1 / 3, 2 / 3), 1 / 3, 1 / 3)
        trace = EpisodeTrace("d2", 4, 2, (first, second), None, None)
        rows = (
            "4,d2,1,z_b,_null_,a,-0|0.5|0.5|0,1,0.5\n"
            "4,d2,2,z_b,z_b,a|b,0|-0|0.333333333333|0.666666666667,0.333333333333,0.333333333333\n"
        )
        want = "seed,theta,t,z,y,state,belief,entropy_bits,capacity_bits\n" + rows * 2
        assert trace_to_csv([trace, trace]) == want

    def test_dump_json_rounds_floats(self):
        text = dump_json({"p": 0.1 + 0.2})
        assert json.loads(text)["p"] == 0.3


def _star_trace_dict(star_scenario) -> dict:
    trace = run_episode(star_scenario, direct_strategy(star_scenario), 2, seed=7)
    return json.loads(dump_json(trace_to_dict(trace, "abc123")))


@pytest.mark.parametrize(
    "field, value",
    [
        ("state", "ab"),
        ("state", ["a", 1]),
        ("belief", "xy"),
        ("belief", [0.5, "0.5", 0.0, 0.0]),
        ("belief", [float("nan"), 0.5, 0.0, 0.0]),
        ("t", "1"),
        ("t", True),
        ("t", None),
        ("z", 3),
        ("y", 3),
        ("y", None),
        ("entropy_bits", "2"),
        ("capacity_bits", float("inf")),
        ("capacity_bits", None),
    ],
)
def test_read_trace_rejects_malformed_round_field(tmp_path, star_scenario, field, value):
    data = _star_trace_dict(star_scenario)
    data["rounds"][1][field] = value
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=rf"rounds\[1\]: field '{field}'"):
        read_trace(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tau", "two"),
        ("tau", 2.0),
        ("tau_id", "1"),
        ("seed", "7"),
        ("seed", None),
        ("horizon", 2.5),
        ("theta", 3),
        ("rounds", {}),
        ("scenario_digest", 5),
    ],
)
def test_read_trace_rejects_malformed_trace_field(tmp_path, star_scenario, field, value):
    data = _star_trace_dict(star_scenario)
    data[field] = value
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=f"field '{field}'"):
        read_trace(path)


@pytest.mark.parametrize("drop", ["t", "state", "belief"])
def test_read_trace_names_missing_round_field(tmp_path, star_scenario, drop):
    data = _star_trace_dict(star_scenario)
    del data["rounds"][0][drop]
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormatError, match=rf"rounds\[0\]: missing field '{drop}'"):
        read_trace(path)


def test_read_trace_accepts_null_tau(tmp_path, star_scenario):
    data = _star_trace_dict(star_scenario)
    data["tau"] = data["tau_id"] = None
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(data))
    trace, digest = read_trace(path)
    assert (trace.tau, trace.tau_id, digest) == (None, None, "abc123")
