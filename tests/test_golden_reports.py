"""Byte-identity of reports and scenario files for every bound.

``data/golden_reports.json`` holds, per case, the exact ``report_to_json``
plus ``report_to_csv`` text of ``run(scenario)`` and the ``save_scenario``
text of the scenario after a ``scenario_from_dict`` round trip.  Refactors
of parsing, serialization or evaluation must reproduce it byte for byte.
Re-record it only for an intended change of the report or file format:

    PYTHONPATH=src python -m tests.test_golden_reports
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest

from revtri import (
    ALL_BOUND_IDS,
    COMPLEX,
    REAL,
    FunctionSpec,
    ScenarioError,
    extremal_scenario,
    generate_scenario,
    load_scenario,
    materialize,
    report_to_csv,
    report_to_json,
    run,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    sweep,
    sweep_to_csv,
)
from revtri.bounds import FAMILY_BOUNDS

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "golden_reports.json"

RECIPE_PARAMS = {
    "THM_2_1": {"k": 0.5, "alpha": 1.0},
    "COR_2_2": {"rho": 0.6},
    "COR_2_3": {"m": 1.0, "M": 4.0},
    "COR_2_4": {"r": 0.5},
    "COR_2_5": {"m": 1.0, "M": 4.0},
}


def _stressed(scenario, factor):
    """The scenario with its node values scaled, so most hypotheses fail."""
    f = materialize(scenario.function, scenario.grid, scenario.field, scenario.d)
    return dataclasses.replace(scenario, id=scenario.id + f"-x{factor}",
                               function=FunctionSpec.samples(f.values * factor))


def _scenario_cases() -> dict:
    """case name -> zero-argument scenario builder."""
    cases = {}
    for i, bound_id in enumerate(ALL_BOUND_IDS):
        n_values = (1, 2, 3) if bound_id in FAMILY_BOUNDS else (3,)
        for field in (REAL, COMPLEX):
            for n in n_values:
                kwargs = dict(seed=1000 + i, trial=n, d=max(n, 2), field=field,
                              n_family=n, n_panels=16)
                cases[f"fuzz-{bound_id}-{field}-n{n}"] = (
                    lambda bid=bound_id, kw=kwargs: generate_scenario(bid, **kw))
        cases[f"stressed-{bound_id}"] = (
            lambda bid=bound_id, i=i: _stressed(
                generate_scenario(bid, seed=2000 + i, trial=0, d=2, n_family=2,
                                  n_panels=32), 1.6))
    for bound_id in RECIPE_PARAMS:
        for field in (REAL, COMPLEX):
            cases[f"extremal-{bound_id}-{field}"] = (
                lambda bid=bound_id, fld=field: extremal_scenario(
                    bid, RECIPE_PARAMS[bid], field=fld, n_panels=32))
    for n in (1, 2, 3):
        cases[f"family-extremal-n{n}"] = (
            lambda n=n: extremal_scenario("THM_3_1", {"n_family": n, "c": 0.75},
                                          n_panels=32))
    for path in sorted(DATA.glob("*.json")):
        if path.name == FIXTURE.name:
            continue
        try:
            load_scenario(path)
        except ScenarioError:
            continue
        cases[f"data-{path.stem}"] = lambda path=path: load_scenario(path)
    return cases


def _sweep_cases() -> dict:
    return {
        "sweep-COR_2_5-M": lambda: sweep("COR_2_5", "M", 1.0, 10.0, 4),
        "sweep-COR_2_3-M-base": lambda: sweep("COR_2_3", "M", 2.0, 6.0, 3,
                                              load_scenario(DATA / "cor23_extremal.json")),
    }


def _scenario_text(scenario) -> str:
    clone = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(scenario))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        save_scenario(clone, path)
        return path.read_text(encoding="utf-8")


def render(name: str) -> dict:
    """The golden record of one case."""
    if name in SWEEP_CASES:
        rows, warnings = SWEEP_CASES[name]()
        return {"sweep": sweep_to_csv(rows), "warnings": warnings}
    scenario = SCENARIO_CASES[name]()
    report = run(scenario)
    return {"report": report_to_json(report) + report_to_csv(report),
            "scenario": _scenario_text(scenario)}


SCENARIO_CASES = _scenario_cases()
SWEEP_CASES = _sweep_cases()
CASES = sorted(SCENARIO_CASES) + sorted(SWEEP_CASES)


@pytest.fixture(scope="module")
def golden() -> dict:
    """The fixture stores each text as its list of lines, for readable diffs."""
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return {name: {key: "\n".join(lines) if key != "warnings" else lines
                   for key, lines in record.items()}
            for name, record in data.items()}


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    recorded = {name.split("-")[1] for name in golden if name.startswith("fuzz-")}
    assert recorded == set(ALL_BOUND_IDS)


@pytest.mark.parametrize("name", CASES)
def test_byte_identical(golden, name):
    assert render(name) == golden[name]


if __name__ == "__main__":
    records = {name: {key: text.split("\n") if key != "warnings" else text
                      for key, text in render(name).items()}
               for name in CASES}
    FIXTURE.write_text(json.dumps(records, sort_keys=True, indent=0) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {FIXTURE}")
