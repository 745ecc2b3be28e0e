"""One pass per function: run() integrates f once for all of its bounds, node
norms are computed once, floating-point overflow is an input error, and every
command maps its verdicts to an exit code through the same rollup."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from revtri import quadrature, run
from revtri.bounds import BOUNDS, REF_UNIT, eval_unit_bound
from revtri.cli import main
from revtri.gridfn import materialize
from revtri.scenario import scenario_from_dict

DATA = Path(__file__).parent / "data"

#: every bound with a unit reference e, with parameters under which it holds for
#: the cone alpha e + s(t) beta u below (||f - e|| = 0.3, ||f|| = sqrt(1.09))
UNIT_PARAMS = {
    "THM_2_1": {"k": {"constant": 0.1}},
    "COR_2_2": {"rho": 0.5},
    "COR_2_3": {"m": 0.5, "M": 2.0},
    "COR_2_4": {"r": {"constant": 0.5}},
    "COR_2_5": {"m": {"constant": 0.5}, "M": {"constant": 2.0}},
    "MULT_A": {"K": 1.1},
    "MULT_B": {"rho": 0.5},
    "MULT_C": {"m": 0.5, "M": 2.0},
}


def _cone_all_unit_bounds() -> dict:
    return {
        "id": "cone-all-unit", "field": "real", "d": 2, "interval": [0.0, 1.0], "N": 64,
        "function": {"variant": "cone", "e": [1.0, 0.0], "u": [0.0, 1.0],
                     "alpha": 1.0, "beta": 0.3},
        "reference": {"e": [1.0, 0.0]},
        "bounds": [{"bound_id": b, "params": p} for b, p in UNIT_PARAMS.items()],
        "tolerances": {},
    }


def test_unit_params_cover_every_unit_bound():
    assert set(UNIT_PARAMS) == {b for b, spec in BOUNDS.items() if spec.reference == REF_UNIT}


def test_run_integrates_f_once(monkeypatch):
    calls = {"norm_integral": 0, "bochner_integral": 0}

    def counting(name):
        original = getattr(quadrature, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    # patched wherever a module holds the name, so an import by name is counted too
    modules = [m for key, m in sys.modules.items() if key.startswith("revtri")]
    for name in calls:
        wrapper = counting(name)
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    scenario = scenario_from_dict(_cone_all_unit_bounds())
    report = run(scenario)
    assert [r.verdict for r in report.results] == ["holds"] * len(UNIT_PARAMS)
    assert calls == {"norm_integral": 1, "bochner_integral": 1}
    for r in report.results:
        assert r.diagnostics["norm_integral"] == report.defect.norm_integral
        assert r.diagnostics["integral_norm"] == report.defect.integral_norm

    f = materialize(scenario.function, scenario.grid, scenario.field, scenario.d)
    entry = scenario.bounds[0]
    eval_unit_bound(f, scenario.reference.e, entry.params, entry.bound_id, quadrature.SIMPSON)
    assert calls == {"norm_integral": 2, "bochner_integral": 2}


def test_node_norms_are_computed_once_and_read_only():
    scenario = scenario_from_dict(_cone_all_unit_bounds())
    f = materialize(scenario.function, scenario.grid, scenario.field, scenario.d)
    norms = f.norms()
    assert f.norms() is norms
    assert not norms.flags.writeable
    with pytest.raises(ValueError):
        norms[0] = 0.0
    assert np.array_equal(norms, np.linalg.norm(f.values, axis=1))


# --------------------------------------------------------------------------
# finite overflow never reaches a verdict

def _cor23(**changes) -> dict:
    data = json.loads((DATA / "cor23_extremal.json").read_text(encoding="utf-8"))
    data.update(changes)
    return data


HUGE_CONE = {"variant": "cone", "e": [1.0, 0.0], "u": [0.0, 1.0],
             "alpha": 1.6e200, "beta": 1.2e200}

OVERFLOW = {
    "interval_1e308": (_cor23(interval=[0.0, 1e308]), "integrals"),
    "cone_1e200_cor23": (_cor23(function=HUGE_CONE, bounds=[
        {"bound_id": "COR_2_3", "params": {"m": 1e200, "M": 4e200}}]), "integrals"),
    "cone_1e200_cor22_mult_a": (_cor23(function=HUGE_CONE, bounds=[
        {"bound_id": "COR_2_2", "params": {"rho": 0.6}},
        {"bound_id": "MULT_A", "params": {"K": 2.0}}]), "integrals"),
    # integrals stay finite; the band residual's m * M overflows
    "band_1e160": (_cor23(function={**HUGE_CONE, "alpha": 1.6e150, "beta": 1.2e150}, bounds=[
        {"bound_id": "COR_2_3", "params": {"m": 1e160, "M": 4e160}}]), "COR_2_3"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOW))
def test_overflow_exits_3_without_nan(case, tmp_path, capsys):
    data, stage = OVERFLOW[case]
    path = tmp_path / f"{case}.json"
    out = tmp_path / f"{case}-report.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"[{data['id']}:{stage}] floating-point" in captured.err
    assert not re.search(r"\bnan\b", captured.out + captured.err, flags=re.IGNORECASE)
    assert captured.out == ""
    assert not out.exists()


# --------------------------------------------------------------------------
# one verdict -> exit code mapping for every command

def test_sweep_exits_2_when_a_hypothesis_fails(capsys):
    argv = ["sweep", "--bound", "COR_2_2", "--param", "rho", "--from", "0.3", "--to", "0.6",
            "--steps", "3", "--base", str(DATA / "ball_hypothesis_fail.json")]
    assert main(argv) == 2
    assert len(capsys.readouterr().out.splitlines()) == 4
