"""Differential tests: the loaders against the general-check loaders of ``oracle``.

The inputs are the four fixtures mutated by ``test_cli_fuzz``'s mutator
and dumped random scenarios, some of them mutated too.  Each file goes
through both mind loaders and both scenario loaders; each pair must
give ``==`` results (for a scenario, its scenario, strategy and notes)
or errors of the same type and text.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracle
from noesis import NoesisError, Scenario
from noesis.fileio import LoadedScenario, load_mind, load_scenario_bundle
from test_cli_fuzz import _mutated

_FIXTURES = ("arithmetic.mind", "diamond.mind", "arithmetic.scenario", "star.scenario")


def _outcome(load, path):
    try:
        value = load(path)
    except NoesisError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, LoadedScenario):
        return value.scenario, value.strategy, value.notes
    return value


def _assert_same_loads(path):
    assert _outcome(load_mind, path) == _outcome(oracle.load_mind, path)
    assert _outcome(load_scenario_bundle, path) == _outcome(oracle.load_scenario_bundle, path)


def _scenario_doc(rng: random.Random, scenario: Scenario) -> dict:
    """The scenario as its file's JSON object, with a random strategy of each kind."""
    mind, system = scenario.mind, scenario.system
    doc = {
        "concepts": list(mind.space.concepts),
        "axioms": sorted(mind.axioms),
        "rules": [{"prereqs": sorted(r.prereqs), "target": r.target} for r in mind.rules],
        "signals": [{"token": t, "target": c} for t, c in zip(system.tokens, system.targets)],
        "targets": list(scenario.targets),
        "prior": [rng.randint(1, 5) if rng.random() < 0.5 else p for p in scenario.prior],
    }
    kind = rng.choice(["none", "direct", "scripted", "broadcast"])
    if kind == "direct":
        doc["strategy"] = {"kind": "direct"}
    elif kind == "scripted":
        script = helpers.random_script(rng, scenario, rng.randint(0, 4))
        doc["strategy"] = {"kind": "scripted", "rows": {t: list(row) for t, row in script.items()}}
    elif kind == "broadcast":
        doc["strategy"] = {"kind": "broadcast", "row": list(helpers.random_row(rng, scenario, rng.randint(0, 4)))}
    return doc


@pytest.mark.parametrize("name", _FIXTURES)
def test_mutated_fixtures_load_as_the_oracle_loads_them(fixtures_dir, tmp_path, name):
    path = tmp_path / name

    @given(_mutated((fixtures_dir / name).read_text()))
    @settings(max_examples=150, deadline=None)
    def run(text):
        path.write_text(text)
        _assert_same_loads(path)

    run()


def test_random_scenarios_load_as_the_oracle_loads_them(tmp_path):
    path = tmp_path / "random.scenario"

    @given(st.randoms(use_true_random=False), st.data())
    @settings(max_examples=200, deadline=None)
    def run(rng, data):
        text = json.dumps(_scenario_doc(rng, helpers.random_scenario(rng, max_concepts=8, max_tokens=8)))
        if rng.random() < 0.5:
            text = data.draw(_mutated(text))
        path.write_text(text)
        _assert_same_loads(path)

    run()

