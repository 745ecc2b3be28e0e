"""The equality cases MULT_B and MULT_C reach through the recipes of their (hypothesis
shape, reference kind): COR_2_2's ball cone and COR_2_3's band cone.

``data/shared_recipe_pins.json`` holds, per case, the sha256 of f's node values, of the
``report_to_json`` plus ``report_to_csv`` text of ``run(scenario)`` and of every
``slack_profile``, as ``data/hypothesis_pins.json`` does.  Re-record it only for an
intended change of the report format:

    PYTHONPATH=src python -m tests.test_shared_recipes
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from revtri import HOLDS, extremal_scenario, report_to_csv, report_to_json, run
from revtri.cli import main
from revtri.sweep import sweep

from .test_multi_block_reports import _sha, _slack_profiles
from .test_residual_kernels import evaluate_bounds

FIXTURE = Path(__file__).parent / "data" / "shared_recipe_pins.json"

#: The recipe defaults: rho = 0.6 on the ball cone, m = 1, M = 4 on the band cone.
PARAMS = {"MULT_B": {"rho": 0.6}, "MULT_C": {"m": 1.0, "M": 4.0}}

CASES = {f"{bound_id}-{field}-{n}": (bound_id, field, n)
         for bound_id in PARAMS for field in ("real", "complex") for n in (512, 65536)}


def scenario(name: str):
    bound_id, field, n = CASES[name]
    return extremal_scenario(bound_id, PARAMS[bound_id], field=field, n_panels=n)


def render(name: str) -> dict:
    """The hashes of one case."""
    s = scenario(name)
    report = run(s)
    return {
        "values": _sha(s.f.values.tobytes()),
        "report": _sha((report_to_json(report) + report_to_csv(report)).encode()),
        "slack": [_sha(p.tobytes()) for r in evaluate_bounds(s)
                  for p in _slack_profiles(r.hypothesis)],
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_case_is_an_equality_case(name):
    [result] = run(scenario(name)).results
    assert result.verdict == HOLDS
    assert abs(result.margin) <= result.err_budget < 1e-13


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_and_slack_profiles_are_byte_identical(recorded, name):
    assert render(name) == recorded[name]


@pytest.mark.parametrize("argv", [["--bound", "MULT_B", "--rho", "0.6"],
                                  ["--bound", "MULT_C", "--m", "1", "--M", "4"]],
                         ids=["MULT_B", "MULT_C"])
def test_extremal_command_reaches_the_shared_cones(argv, capsys):
    assert main(["extremal", *argv]) == 0
    out = capsys.readouterr().out
    budget = float(re.search(r"err_budget=(\S+)", out).group(1))
    gap = float(re.search(r"equality gap (\S+)", out).group(1))
    assert abs(gap) <= budget


def test_sweep_of_the_band_ratio_holds_at_every_step(capsys):
    rows, warnings = sweep("MULT_C", "M", 2.0, 8.0, 4)
    assert warnings == [] and [row.value for row in rows] == [2.0, 4.0, 6.0, 8.0]
    assert {row.verdict for row in rows} == {HOLDS}
    assert main(["sweep", "--bound", "MULT_C", "--param", "M", "--from", "2", "--to", "8",
                 "--steps", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4


# --------------------------------------------------------------------------
# the budget's underflow term carries the right-hand side's multiplier

def test_a_large_ball_coefficient_on_a_subnormal_interval_holds():
    """COR_2_2's coefficient at rho = 0.9999 is ~69.7: the term without it, 2.0e-321 here,
    fell short of the margin's -2.1e-321."""
    s = extremal_scenario("COR_2_2", {"rho": 0.9999}, interval=(0.0, 1e-310), n_panels=32)
    [result] = run(s).results
    assert result.verdict == HOLDS
    assert abs(result.margin) <= result.err_budget


@pytest.mark.parametrize("length", [1e-310, 1e-318])
@pytest.mark.parametrize("n_panels", [32, 4096])
@pytest.mark.parametrize("bound_id, params", [
    ("COR_2_2", {"rho": 0.9999}), ("MULT_B", {"rho": 0.9999}),
    ("COR_2_3", {"m": 1.0, "M": 1e6}), ("MULT_C", {"m": 1.0, "M": 1e6})])
def test_shared_cones_hold_on_subnormal_intervals(bound_id, params, n_panels, length):
    s = extremal_scenario(bound_id, params, interval=(0.0, length), n_panels=n_panels)
    assert [r.verdict for r in run(s).results] == [HOLDS]


if __name__ == "__main__":
    records = {name: render(name) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {FIXTURE}")
