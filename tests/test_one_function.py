"""Each function is built once: a fuzz generator takes its constants from the node tables
of the trial's GridFunction and the scenario carries that function into ``run()``, and a
sweep over a base scenario materializes and integrates the base function once.  Reports,
scenario dumps and sweep tables are those of a function materialized afresh per use."""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from revtri import bounds as B
from revtri import quadrature as Q
from revtri.cli import main
from revtri.errors import DegeneracyError
from revtri.extremal import extremal_scenario
from revtri.fuzz import GENERATORS, fuzz, generate_scenario
from revtri.gridfn import GridFunction, materialize
from revtri.hilbert import COMPLEX, DEFAULT_ORTHO_TOL, REAL
from revtri.scenario import (
    Tolerances,
    load_scenario,
    report_to_json,
    run,
    scenario_from_dict,
    scenario_to_dict,
)
from revtri.sweep import SweepRow, _base_params, sweep, sweep_to_csv

from .conftest import table_key

DATA = Path(__file__).parent / "data"

#: Bounds whose generator reads node norms, projections or distances of f.
GEOMETRY_BOUNDS = (B.THM_2_1, B.COR_2_4, B.MULT_A, B.THM_3_1, B.COR_3_2, B.COR_3_3,
                   B.COR_3_4, B.COR_3_5)

TRIAL = {"seed": 31, "trial": 2, "d": 4, "n_family": 3, "n_panels": 64}


# --------------------------------------------------------------------------
# a fuzz trial builds f once

@pytest.mark.parametrize("field", (REAL, COMPLEX))
@pytest.mark.parametrize("bound_id", sorted(B.ALL_BOUND_IDS))
def test_scenario_carries_the_generators_function(bound_id, field, monkeypatch):
    built = []
    generator = GENERATORS[table_key(bound_id)]

    def capturing(chunk):   # generate_scenario is a chunk of one trial
        out = generator(chunk)
        built.extend(out[0])
        return out
    monkeypatch.setitem(GENERATORS, table_key(bound_id), capturing)
    scenario = generate_scenario(bound_id, field=field, **TRIAL)
    [f] = built
    assert isinstance(f, GridFunction) and scenario.f is f
    fresh = materialize(scenario.function, scenario.grid, scenario.field, scenario.d)
    assert fresh.values.dtype == f.values.dtype
    assert fresh.values.tobytes() == f.values.tobytes()
    again = dataclasses.replace(scenario)  # no cached f: materialized afresh
    assert again.f is not f
    assert report_to_json(run(scenario)) == report_to_json(run(again))
    assert (json.dumps(scenario_to_dict(scenario), sort_keys=True)
            == json.dumps(scenario_to_dict(again), sort_keys=True))


@pytest.mark.parametrize("field", (REAL, COMPLEX))
@pytest.mark.parametrize("bound_id", sorted(B.ALL_BOUND_IDS))
def test_no_node_table_is_computed_twice_in_a_trial(bound_id, field, monkeypatch):
    computed = []  # (stage, table key) per compute call
    stage = ["generate"]
    original = GridFunction.cached

    def counting(self, key, compute):
        def counted():
            computed.append((stage[0], key))
            return compute()
        return original(self, key, counted)
    monkeypatch.setattr(GridFunction, "cached", counting)
    scenario = generate_scenario(bound_id, field=field, **TRIAL)
    kept = set(scenario.f._tables)   # the generator keeps its chunk's tables on f
    stage[0] = "run"
    run(scenario)
    keys = [key for _, key in computed]
    assert len(keys) == len(set(keys)), keys
    assert not kept & set(keys), kept & set(keys)
    if bound_id in GEOMETRY_BOUNDS:   # it read node tables of f besides the norms
        assert kept - {("norms",)}


@pytest.mark.parametrize("argv, message", [
    (["--bound", "COR_2_2", "--dim", "-1"], "dimension d must be at least 1, got -1"),
    (["--bound", "COR_2_2", "--dim", "0"], "dimension d must be at least 1, got 0"),
    (["--bound", "THM_3_1", "--n-family", "-2"], "n_family must be at least 1, got -2"),
    (["--bound", "COR_3_5", "--n-family", "0"], "n_family must be at least 1, got 0"),
])
def test_cli_fuzz_rejects_nonpositive_sizes(argv, message, capsys):
    assert main(["fuzz", "--trials", "2", "--seed", "1", *argv]) == 3
    assert message in capsys.readouterr().err


def test_sizes_a_bound_does_not_use_are_not_checked():
    # a direction bound runs at d = 1, and only family bounds read n_family
    assert fuzz(B.PROP_4_1, 2, seed=1, d=-1, n_panels=16).holds == 2
    assert fuzz(B.COR_2_2, 2, seed=1, n_family=-2, n_panels=16).holds == 2


def test_default_orthogonality_tolerance_is_the_hilbert_one():
    assert Tolerances().tau_on == DEFAULT_ORTHO_TOL


# --------------------------------------------------------------------------
# a bound is judged on the integrals of its own f

def test_a_bound_reads_the_integrals_of_its_own_function():
    # the M = 4 cone is COR_2_3's equality case; on the integrals of the M = 9 cone it
    # would be violated by 0.75 with its hypothesis held
    assert "est" not in inspect.signature(B.evaluate).parameters
    scenario = extremal_scenario(B.COR_2_3, {"m": 1.0, "M": 4.0})
    other = extremal_scenario(B.COR_2_3, {"m": 1.0, "M": 9.0})
    Q.defect(other.f)
    f, e, params = scenario.f, scenario.reference.e, scenario.bounds[0].params
    results = [B.evaluate(f, scenario.reference, params, B.COR_2_3),
               B.eval_unit_bound(f, e, params, B.COR_2_3), run(scenario).results[0]]
    for r in results:
        assert r.verdict == B.HOLDS and r.hypothesis.holds
        assert abs(r.margin) <= r.err_budget
        assert r.diagnostics["defect"] == Q.defect(f).value != Q.defect(other.f).value


# --------------------------------------------------------------------------
# a base sweep runs its function once

def _step_by_step(bound_id: str, parameter: str, values, base) -> str:
    """The sweep table with one extremal run and one base run per step."""
    rows = []
    for value in values:
        params = {**_base_params(bound_id, base), parameter: value}
        ext = extremal_scenario(bound_id, params, interval=(base.grid.a, base.grid.b),
                                n_panels=base.grid.n_panels)
        gap = run(ext).results[0].margin
        r = run(dataclasses.replace(base, bounds=ext.bounds)).results[0]
        rows.append(SweepRow(parameter, value, r.lhs, r.rhs, r.margin, gap, r.verdict))
    return sweep_to_csv(rows)


def test_base_sweep_integrates_the_base_function_once(monkeypatch):
    base = load_scenario(DATA / "cor23_extremal.json")
    integrated = []
    original = Q._defects

    def counting(field, grid, values, *args, **kwargs):
        integrated.append(values)
        return original(field, grid, values, *args, **kwargs)
    monkeypatch.setattr(Q, "_defects", counting)
    rows, warnings = sweep(B.COR_2_3, "M", 3.0, 6.0, 4, base=base)
    assert not warnings and len(rows) == 4
    assert sum(values is base.f.values for values in integrated) == 1
    monkeypatch.setattr(Q, "_defects", original)
    assert sweep_to_csv(rows) == _step_by_step(B.COR_2_3, "M", [r.value for r in rows], base)


def test_base_sweep_skips_infeasible_steps_in_its_one_run():
    base = load_scenario(DATA / "cor23_extremal.json")
    rows, warnings = sweep(B.COR_2_3, "m", -1.0, 2.0, 4, base=base)
    assert [w.split(":")[0] for w in warnings] == ["m=-1.0 skipped", "m=0.0 skipped"]
    assert sweep_to_csv(rows) == _step_by_step(B.COR_2_3, "m", [1.0, 2.0], base)


def test_base_error_of_an_earlier_step_is_raised_before_a_later_extremal_error():
    # on [0, 7.5e307] the THM_2_1 extremal of k has ||f|| = 1 + k: for k = 0.1 every number
    # of its verdict is finite, for k = 1.5 its integrals overflow while its recipe
    # (expected defect k * 7.5e307) stays finite.  The base's integrals (||f|| = 3)
    # overflow too: step by step its run for k = 0.1 raises before the extremal of k = 1.5
    # does.
    data = json.loads((DATA / "cor23_extremal.json").read_text())
    data["interval"] = [0.0, 7.5e307]
    data["function"].update(alpha=2.4, beta=1.8)
    with pytest.raises(DegeneracyError, match=r"^\[cor23-extremal:integrals\] .*overflow"):
        sweep(B.THM_2_1, "k", 0.1, 1.5, 2, base=scenario_from_dict(data))
    data["function"].update(alpha=0.5, beta=0.0)   # a base of norm 0.5 integrates
    with pytest.raises(DegeneracyError, match=r"^\[sweep-thm_2_1-k:integrals\] .*overflow"):
        sweep(B.THM_2_1, "k", 0.1, 1.5, 2, base=scenario_from_dict(data))


# --------------------------------------------------------------------------
# extremal sizes from the command line

def test_cli_extremal_family_takes_dim_and_field(tmp_path, capsys):
    path = tmp_path / "family.json"
    assert main(["extremal", "--bound", "THM_3_1", "--dim", "5", "--field", "complex",
                 "--scenario-out", str(path)]) == 0
    scenario = load_scenario(path)
    assert (scenario.field, scenario.d, scenario.reference.family.n) == (COMPLEX, 5, 2)
    assert main(["extremal", "--bound", "THM_3_1", "--n-family", "3",
                 "--scenario-out", str(path)]) == 0
    assert load_scenario(path).d == 3
    assert main(["extremal", "--bound", "COR_2_2", "--rho", "0.5",
                 "--scenario-out", str(path)]) == 0
    assert (load_scenario(path).field, load_scenario(path).d) == (REAL, 2)
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["--bound", "COR_2_3", "--m", "1", "--M", "4", "--panels", "0"],
     "panel count must be positive and even, got 0"),
    (["--bound", "THM_3_1", "--panels", "0"], "panel count must be positive and even, got 0"),
    (["--bound", "THM_3_1", "--n-family", "3", "--dim", "0"], "family of 3 needs d >= 3"),
    (["--bound", "COR_2_2", "--rho", "0.5", "--dim", "0"], "cone extremals need d >= 2"),
    (["--bound", "THM_3_1", "--n-family", "0"], "n_family must be at least 1"),
])
def test_cli_extremal_rejects_zero_sizes(argv, message, capsys):
    assert main(["extremal", *argv]) == 3
    assert message in capsys.readouterr().err
