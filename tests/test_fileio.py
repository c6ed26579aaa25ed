from __future__ import annotations

import json

import pytest

from noesis import (
    FormatError,
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
from noesis.fileio import dump_json, trace_from_dict, trace_to_dict


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

    def test_signal_outside_concept_space_named(self, tmp_path, fixtures_dir):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["signals"].append({"token": "z_x", "target": "x"})
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match=r"signals\[5\]: unknown concept 'x'"):
            load_scenario_bundle(path)

    def test_unknown_strategy_kind(self, tmp_path, fixtures_dir):
        data = json.loads((fixtures_dir / "star.scenario").read_text())
        data["strategy"] = {"kind": "telepathy"}
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError, match="telepathy"):
            load_scenario_bundle(path)


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

    def test_csv_export(self, star_scenario):
        strategy = direct_strategy(star_scenario)
        trace = run_episode(star_scenario, strategy, 2, seed=7)
        text = trace_to_csv([trace])
        lines = text.strip().split("\n")
        assert lines[0].startswith("seed,theta,t,z,y,state,belief")
        assert len(lines) == 3

    def test_dump_json_rounds_floats(self):
        text = dump_json({"p": 0.1 + 0.2})
        assert json.loads(text)["p"] == 0.3
