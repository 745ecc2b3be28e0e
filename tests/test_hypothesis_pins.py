"""Byte identity of the hypothesis reports that ``golden_reports.json`` has no failing case
for: MULT_A (scaled dominance), KARAMATA (argument cone) and COR_3_2 (ball family), plus
a COR_3_5 family.  In each family case only the last member fails, so the order of the
sub-reports and ``failing_indices`` are pinned too.

``data/hypothesis_pins.json`` holds, per case, the sha256 of f's node values, of the
``report_to_json`` plus ``report_to_csv`` text of ``run(scenario)`` and of every
``slack_profile`` (each report's, then its sub-reports', in report order), read from the
bounds evaluated on the scenario's f.  Re-record it only for an intended change of the
report format:

    PYTHONPATH=src python -m tests.test_hypothesis_pins
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from revtri import HYPOTHESIS_FAILED, report_to_csv, report_to_json, run, scenario_from_dict

from .test_multi_block_reports import _coords, _sha, _slack_profiles, _unit_frame
from .test_residual_kernels import evaluate_bounds

FIXTURE = Path(__file__).parent / "data" / "hypothesis_pins.json"
N_PANELS = 256


def _scenario(sid, field, d, function, reference, bounds) -> dict:
    return {"id": sid, "field": field, "d": d, "interval": [0.0, 1.0], "N": N_PANELS,
            "function": function, "reference": reference, "bounds": bounds,
            "tolerances": {}}


def scaled_dominance(field: str) -> dict:
    """The cone alpha e +- beta u has ||f|| / Re<f, e> = sqrt(1 + 0.3^2) ~ 1.044 > K."""
    e, u = _unit_frame(field)
    function = {"variant": "cone", "e": _coords(field, e), "u": _coords(field, u),
                "alpha": 1.0, "beta": 0.3}
    return _scenario(f"mult-a-{field}", field, 4, function, {"e": _coords(field, e)},
                     [{"bound_id": "MULT_A", "params": {"K": 1.02}}])


def arg_cone(field: str) -> dict:
    """The curve's argument runs from 0.9 down to 0.7, above theta = 0.8 at first."""
    function = {"variant": "complex_curve", "r": {"linear": [0.9, 1.1]},
                "phi": {"linear": [0.9, 0.7]}}
    return _scenario("karamata", field, 1, function,
                     {"alpha_beta": [math.cos(0.8), math.sin(0.8)]},
                     [{"bound_id": "KARAMATA", "params": {"theta": 0.8}}])


def _family(field: str, sid: str, bounds: list) -> dict:
    """c(t) (e_1 + e_2 + e_3) / sqrt(3) in K^5: ||f - a e_i|| is the same for every i."""
    i = 1j if field == "complex" else 1.0
    members = [[0.6, 0.8 * i, 0.0, 0.0, 0.0],
               [-0.8, 0.6 * i, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.28, 0.96 * i, 0.0]]
    coords = [_coords(field, m) for m in members]
    function = {"variant": "family_symmetric", "family": coords,
                "c": {"sinusoid": [0.55, 0.2, 3.0]}}
    return _scenario(f"{sid}-{field}", field, 5, function, {"family": coords}, bounds)


def ball_family(field: str) -> dict:
    """||f - e_i|| reaches ~0.834: within the first two radii, beyond the last."""
    return _family(field, "ball-family", [
        {"bound_id": "COR_3_2", "params": {"rho_i": [0.9, 0.92, 0.82]}}])


def band_norm_family(field: str) -> dict:
    """The first two bands contain f; the last one's center 0.95 e_3 and radius 0.65 do
    not, at the nodes where c(t) is smallest."""
    return _family(field, "band-norm-family", [
        {"bound_id": "COR_3_5", "params": {
            "m_i": [{"constant": 0.1}, {"linear": [0.1, 0.12]}, {"constant": 0.3}],
            "M_i": [{"constant": 2.0}, {"linear": [2.0, 2.05]}, {"constant": 1.6}]}}])


CASES = {
    **{f"MULT_A-{field}": (scaled_dominance, field) for field in ("real", "complex")},
    "KARAMATA-complex": (arg_cone, "complex"),
    **{f"COR_3_2-{field}": (ball_family, field) for field in ("real", "complex")},
    **{f"COR_3_5-{field}": (band_norm_family, field) for field in ("real", "complex")},
}


def render(name: str) -> dict:
    """The hashes of one case."""
    make, arg = CASES[name]
    scenario = scenario_from_dict(make(arg))
    report = run(scenario)
    return {
        "values": _sha(scenario.f.values.tobytes()),
        "report": _sha((report_to_json(report) + report_to_csv(report)).encode()),
        "slack": [_sha(p.tobytes()) for r in evaluate_bounds(scenario)
                  for p in _slack_profiles(r.hypothesis)],
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_case_fails_its_hypothesis_only_at_the_last_member(name):
    make, arg = CASES[name]
    result = run(scenario_from_dict(make(arg))).results[0]
    assert result.verdict == HYPOTHESIS_FAILED
    subs = result.hypothesis.sub_reports
    if name.startswith("COR_3"):
        assert result.hypothesis.failing_indices == (len(subs) - 1,)
        assert [s.condition_id for s in subs] == [
            f"{result.hypothesis.condition_id}[{i}]" for i in range(len(subs))]
    else:
        assert subs is None


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_and_slack_profiles_are_byte_identical(recorded, name):
    assert render(name) == recorded[name]


if __name__ == "__main__":
    records = {name: render(name) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {FIXTURE}")
