"""Byte identity of closed-form checks across node blocks.

At N = 12290 a grid has 12291 nodes: three full node blocks of 4096 and a partial one
of 3, so code that walks node blocks meets a block boundary and a short last block.
``data/multi_block_hashes.json`` holds, per case, the sha256 of f's node values, of the
``report_to_json`` plus ``report_to_csv`` text of ``run(scenario)`` and of every
``slack_profile`` (each report's, then its sub-reports', in report order).
The cases cover the cone with its midpoint jump, the ball perturbation and the
symmetric family, real and complex, and both kinds of complex curve, with every bound.
Re-record the fixture only for an intended change of the report format:

    PYTHONPATH=src python -m tests.test_multi_block_reports
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from revtri import report_to_csv, report_to_json, run, scenario_from_dict

FIXTURE = Path(__file__).parent / "data" / "multi_block_hashes.json"
N_PANELS = 12290


def _coords(field: str, values) -> list:
    """Real coordinates as floats; complex ones as [re, im] pairs."""
    if field == "real":
        return [complex(v).real for v in values]
    return [[complex(v).real, complex(v).imag] for v in values]


def _scenario(sid, field, d, function, reference, bounds) -> dict:
    return {"id": sid, "field": field, "d": d, "interval": [0.0, 1.0], "N": N_PANELS,
            "function": function, "reference": reference, "bounds": bounds,
            "tolerances": {}}


#: Every unit-reference bound but KARAMATA, for f with ||f|| ~ 1.04, Re<f, e> ~ 1 and
#: ||f - e|| ~ 0.3: most hypotheses hold, with profiles and scalar constants.
UNIT_BOUNDS = [
    {"bound_id": "THM_2_1", "params": {"k": {"sinusoid": [0.06, 0.01, 5.0]}}},
    {"bound_id": "COR_2_2", "params": {"rho": 0.5}},
    {"bound_id": "COR_2_3", "params": {"m": 0.5, "M": 2.0}},
    {"bound_id": "COR_2_4", "params": {"r": {"linear": [0.35, 0.4]}}},
    {"bound_id": "COR_2_5", "params": {"m": {"linear": [0.5, 0.55]},
                                       "M": {"linear": [1.6, 1.7]}}},
    {"bound_id": "MULT_A", "params": {"K": 1.1}},
    {"bound_id": "MULT_B", "params": {"rho": 0.5}},
    {"bound_id": "MULT_C", "params": {"m": 0.5, "M": 2.0}},
]


def _unit_frame(field: str) -> tuple[list, list]:
    """Orthonormal e and u in K^4 with no zero coordinate pattern shared by both."""
    i = 1j if field == "complex" else 1.0
    e = [0.6, 0.8 * i, 0.0, 0.0]
    u = [0.0, 0.0, 0.28 * i, 0.96]
    return e, u


def cone(field: str) -> dict:
    e, u = _unit_frame(field)
    function = {"variant": "cone", "e": _coords(field, e), "u": _coords(field, u),
                "alpha": 1.0, "beta": 0.3}
    return _scenario(f"cone-{field}", field, 4, function, {"e": _coords(field, e)},
                     UNIT_BOUNDS)


def ball(field: str) -> dict:
    e, _ = _unit_frame(field)
    function = {"variant": "ball_perturbation", "e": _coords(field, e), "rho": 0.3,
                "omega": 7.3}
    return _scenario(f"ball-{field}", field, 4, function, {"e": _coords(field, e)},
                     UNIT_BOUNDS)


def family(field: str) -> dict:
    """c(t) (e_1 + e_2 + e_3) / sqrt(3) in K^5 with every family bound."""
    i = 1j if field == "complex" else 1.0
    members = [[0.6, 0.8 * i, 0.0, 0.0, 0.0],
               [-0.8, 0.6 * i, 0.0, 0.0, 0.0],
               [0.0, 0.0, 0.28, 0.96 * i, 0.0]]
    coords = [_coords(field, m) for m in members]
    bounds = [
        {"bound_id": "THM_3_1", "params": {"M_i": [{"sinusoid": [0.3, 0.1, 3.0]}] * 3}},
        {"bound_id": "COR_3_2", "params": {"rho_i": [0.9, 0.92, 0.95]}},
        {"bound_id": "COR_3_3", "params": {"m_i": [0.1, 0.1, 0.12], "M_i": [2.0, 2.2, 2.0]}},
        {"bound_id": "COR_3_4", "params": {"r_i": [{"linear": [0.9, 0.95]}] * 3}},
        {"bound_id": "COR_3_5", "params": {"m_i": [{"sinusoid": [0.1588, 0.0577, 3.0]}] * 3,
                                           "M_i": [{"sinusoid": [1.7465, 0.635, 3.0]}] * 3}},
    ]
    function = {"variant": "family_symmetric", "family": coords,
                "c": {"sinusoid": [0.55, 0.2, 3.0]}}
    return _scenario(f"family-{field}", field, 5, function, {"family": coords}, bounds)


def curve(linear: bool) -> dict:
    """r(t) exp(i phi(t)) around exp(0.8 i), with every complex-plane bound."""
    psi = 0.8
    if linear:
        r, phi = {"linear": [0.9, 1.1]}, {"linear": [0.9, 0.7]}
        k, K = {"constant": 0.6}, {"constant": 1.5}
    else:
        r, phi = {"sinusoid": [1.0, 0.1, 4.0]}, {"sinusoid": [psi, 0.1, 6.0]}
        k, K = {"linear": [0.6, 0.65]}, {"sinusoid": [1.5, 0.05, 2.0]}
    bounds = [
        {"bound_id": "KARAMATA", "params": {"theta": 1.235}},
        {"bound_id": "PROP_4_1", "params": {"rho": 0.25}},
        {"bound_id": "PROP_4_2", "params": {"m": 0.45, "M": 1.3}},
        {"bound_id": "PROP_4_3", "params": {"k": k, "K": K}},
    ]
    function = {"variant": "complex_curve", "r": r, "phi": phi}
    kind = "linear" if linear else "sinusoid"
    return _scenario(f"curve-{kind}", "complex", 1, function,
                     {"alpha_beta": [math.cos(psi), math.sin(psi)]}, bounds)


CASES = {
    **{f"cone-{field}": (cone, field) for field in ("real", "complex")},
    **{f"ball-{field}": (ball, field) for field in ("real", "complex")},
    **{f"family-{field}": (family, field) for field in ("real", "complex")},
    "curve-linear": (curve, True),
    "curve-sinusoid": (curve, False),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _slack_profiles(hypothesis):
    yield hypothesis.slack_profile
    for sub in hypothesis.sub_reports or ():
        yield from _slack_profiles(sub)


def render(name: str) -> dict:
    """The hashes of one case."""
    make, arg = CASES[name]
    scenario = scenario_from_dict(make(arg))
    report = run(scenario)
    return {
        "values": _sha(scenario.f.values.tobytes()),
        "report": _sha((report_to_json(report) + report_to_csv(report)).encode()),
        "slack": [_sha(p.tobytes()) for r in report.results
                  for p in _slack_profiles(r.hypothesis)],
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case_and_bound(recorded):
    assert sorted(recorded) == sorted(CASES)
    bound_ids = {b["bound_id"] for make, arg in CASES.values() for b in make(arg)["bounds"]}
    assert len(bound_ids) == 17


def test_cases_end_in_a_partial_node_block():
    from revtri.scenario import _NODE_BLOCK
    n_nodes = N_PANELS + 1
    assert n_nodes > 3 * _NODE_BLOCK and n_nodes % _NODE_BLOCK != 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_and_slack_profiles_are_byte_identical(recorded, name):
    assert render(name) == recorded[name]


if __name__ == "__main__":
    records = {name: render(name) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {FIXTURE}")
