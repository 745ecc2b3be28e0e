"""Byte-identity of reports and scenario files for every bound.

``data/golden_reports.json`` holds, per case, the exact ``report_to_json``
plus ``report_to_csv`` text of ``run(scenario)`` and the ``save_scenario``
text of the scenario after a ``scenario_from_dict`` round trip.  Refactors
of parsing, serialization or evaluation must reproduce it byte for byte.
Re-record it only for an intended change of the report or file format:

    PYTHONPATH=src python -m tests.test_golden_reports

Before re-recording, list what would change:

    PYTHONPATH=src python -m tests.test_golden_reports --diff

prints every JSON path and CSV cell that differs from the fixture, and exits 1 if any
changed leaf is not a float (a verdict, ``holds``, an index, a key set, an id, a text).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from revtri import (
    ALL_BOUND_IDS,
    COMPLEX,
    REAL,
    FunctionSpec,
    RevtriError,
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


def _recorded() -> dict:
    """The fixture stores each text as its list of lines, for readable diffs."""
    data = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return {name: {key: "\n".join(lines) if key != "warnings" else lines
                   for key, lines in record.items()}
            for name, record in data.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return _recorded()


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    recorded = {name.split("-")[1] for name in golden if name.startswith("fuzz-")}
    assert recorded == set(ALL_BOUND_IDS)


@pytest.mark.parametrize("name", CASES)
def test_byte_identical(golden, name):
    assert render(name) == golden[name]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SCENARIO_CASES))
def test_a_huge_interval_is_judged_on_finite_numbers_or_rejected(golden, name):
    """The recorded file on [-1e308, 1], a finite interval whose integrals and budgets leave
    the float range: an input error (``revtri check`` exits 3), or a report whose lhs,
    rhs, margin and err_budget are finite.  No verdict rests on inf or NaN, and no numpy
    warning is printed on the way."""
    data = json.loads(golden[name]["scenario"])
    data["interval"] = [-1e308, 1.0]
    try:
        report = run(scenario_from_dict(data, source=name))
    except RevtriError:
        return
    numbers = [x for r in report.results for x in (r.lhs, r.rhs, r.margin, r.err_budget)]
    assert all(map(math.isfinite, numbers)), numbers


def _json_leaves(path: str, old, new, out: list) -> None:
    """Append (path, old, new) for each leaf where two JSON values differ; a differing key
    set, length or type is one leaf."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            out.append((f"{path} keys", sorted(old), sorted(new)))
        for key in old:
            if key in new:
                _json_leaves(f"{path}.{key}", old[key], new[key], out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            _json_leaves(f"{path}[{i}]", o, n, out)
    elif type(old) is not type(new) or repr(old) != repr(new):
        out.append((path, old, new))


def _csv_cells(path: str, old: str, new: str, out: list) -> None:
    """Append (path, old, new) for each differing CSV cell, named by row and header."""
    old_rows, new_rows = (list(csv.reader(text.strip().splitlines())) for text in (old, new))
    if [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        out.append((f"{path} shape", old_rows, new_rows))
        return
    header = old_rows[0] if old_rows else []
    for i, (o_row, n_row) in enumerate(zip(old_rows, new_rows)):
        for j, (o, n) in enumerate(zip(o_row, n_row)):
            if o != n:
                name = header[j] if j < len(header) else j
                out.append((f"{path}[{i}].{name}", _float_or_text(o), _float_or_text(n)))


def _float_or_text(cell: str):
    """A CSV cell as a float if it spells one (and not an integer), else the text."""
    try:
        return cell if cell.lstrip("-").isdigit() else float(cell)
    except ValueError:
        return cell


def _changes(old: dict, new: dict) -> list:
    """(path, old, new) for every leaf of one case's record that changed."""
    out = []
    for key in sorted(old.keys() | new.keys()):
        found = len(out)
        if key not in old or key not in new:
            out.append((key, old.get(key), new.get(key)))
        elif key == "report":  # report_to_json text, then report_to_csv text
            (o_json, o_end), (n_json, n_end) = (json.JSONDecoder().raw_decode(text)
                                                for text in (old[key], new[key]))
            _json_leaves("report$", o_json, n_json, out)
            _csv_cells("report.csv", old[key][o_end:], new[key][n_end:], out)
        elif key == "scenario":
            _json_leaves("scenario$", json.loads(old[key]), json.loads(new[key]), out)
        elif key == "sweep":
            _csv_cells("sweep.csv", old[key], new[key], out)
        else:
            _json_leaves(key, old[key], new[key], out)
        if len(out) == found and old[key] != new[key]:  # same values, other text
            out.append((f"{key} text", old[key], new[key]))
    return out


def diff() -> int:
    """Print what re-recording would change; 1 if a changed leaf is not a float."""
    recorded = _recorded()
    bad = 0
    for name in sorted(recorded.keys() | set(CASES)):
        if name not in recorded or name not in CASES:
            print(f"{name}: {'added' if name in CASES else 'removed'}")
            bad += 1
            continue
        for path, old, new in _changes(recorded[name], render(name)):
            is_float = type(old) is float and type(new) is float
            bad += not is_float
            print(f"{name} {path}: {old!r} -> {new!r}{'' if is_float else '  (not a float)'}")
    print(f"{bad} changed leaves are not floats")
    return 1 if bad else 0


def test_diff_names_each_changed_leaf():
    old = {"report": '{"a": 1.5, "v": "holds"}\nx,n\n1.5,3\n', "scenario": '{"id": "s"}',
           "warnings": ["w"]}
    new = {"report": '{"a": 1.25, "v": "violated"}\nx,n\n1.25,4\n', "scenario": '{"id":"s"}',
           "warnings": ["w"]}
    assert _changes(old, new) == [
        ("report$.a", 1.5, 1.25), ("report$.v", "holds", "violated"),
        ("report.csv[1].x", 1.5, 1.25), ("report.csv[1].n", "3", "4"),
        ("scenario text", '{"id": "s"}', '{"id":"s"}')]


if __name__ == "__main__" and sys.argv[1:] == ["--diff"]:
    sys.exit(diff())
elif __name__ == "__main__":
    records = {name: {key: text.split("\n") if key != "warnings" else text
                      for key, text in render(name).items()}
               for name in CASES}
    FIXTURE.write_text(json.dumps(records, sort_keys=True, indent=0) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {FIXTURE}")
