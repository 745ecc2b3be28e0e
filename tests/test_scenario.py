from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from revtri import (
    ScenarioError,
    exit_code,
    extremal_scenario,
    load_scenario,
    report_to_csv,
    report_to_json,
    run,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from revtri.cli import main
from revtri.scenario import CSV_HEADER

DATA = Path(__file__).parent / "data"


def _load_fixture(name):
    return load_scenario(DATA / name)


def test_golden_cor23_fixture():
    scenario = _load_fixture("cor23_extremal.json")
    assert scenario.id == "cor23-extremal"
    entry = scenario.bounds[0]
    assert entry.bound_id == "COR_2_3"
    assert entry.params.m == 1.0
    assert entry.params.M == 4.0
    report = run(scenario)
    assert report.rollup == "holds"
    assert exit_code(report) == 0
    result = report.results[0]
    assert result.lhs == pytest.approx(0.4, abs=1e-12)
    assert abs(result.margin) <= 1e-9


def test_golden_cor25_fixture():
    report = run(_load_fixture("cor25_extremal.json"))
    assert report.rollup == "holds"
    assert abs(report.results[0].margin) <= 1e-9


def test_hypothesis_failure_fixture():
    report = run(_load_fixture("ball_hypothesis_fail.json"))
    assert report.rollup == "hypothesis_failed"
    assert exit_code(report) == 2
    result = report.results[0]
    assert result.verdict == "hypothesis_failed"
    assert result.hypothesis.worst_violation == pytest.approx(0.3, abs=1e-9)


def test_tau_edge_violation_fixture():
    # hypothesis residual sits inside tau_hyp while the bound margin does not:
    # the verdict must be an honest "violated" (exit code 1)
    report = run(_load_fixture("dominance_tau_edge.json"))
    assert report.rollup == "violated"
    assert exit_code(report) == 1
    result = report.results[0]
    assert result.hypothesis.holds
    assert result.margin == pytest.approx(-5e-10, rel=1e-2)


def test_odd_panel_count_rejected():
    with pytest.raises(ScenarioError) as exc:
        _load_fixture("invalid_odd_N.json")
    assert ".N" in exc.value.path or exc.value.path.endswith("N")


def test_rho_range_rejected():
    with pytest.raises(ScenarioError) as exc:
        _load_fixture("invalid_rho_one.json")
    assert "rho" in exc.value.path
    assert "(0, 1)" in exc.value.reason


def test_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def _base_dict():
    return json.loads((DATA / "cor23_extremal.json").read_text())


def test_top_level_keys_are_exact():
    data = _base_dict()
    data["extra"] = 1
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert "unknown keys" in exc.value.reason

    data = _base_dict()
    del data["tolerances"]
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_unknown_bound_id():
    data = _base_dict()
    data["bounds"][0]["bound_id"] = "THM_9_9"
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert "bound_id" in exc.value.path


def test_reference_kind_mismatch():
    data = _base_dict()
    data["bounds"] = [{"bound_id": "THM_3_1", "params": {"M_i": [{"constant": 0.5}]}}]
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert "family" in exc.value.reason


def test_direction_bound_needs_the_complex_line(tmp_path, capsys):
    data = json.loads((DATA / "cor23_extremal.json").read_text(encoding="utf-8"))
    assert (data["field"], data["d"]) == ("real", 2)
    data["reference"] = {"alpha_beta": [0.6, 0.8]}
    data["bounds"] = [{"bound_id": "PROP_4_1", "params": {"rho": 0.5}}]
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert (exc.value.path, exc.value.reason) == (
        "scenario.bounds[0]", "PROP_4_1 requires field=complex and d=1")
    path = tmp_path / "direction.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: direction.json.bounds[0]: PROP_4_1 requires field=complex and d=1"]


def test_family_param_count_checked():
    scenario = extremal_scenario("THM_3_1", {"n_family": 2})
    data = scenario_to_dict(scenario)
    data["bounds"][0]["params"]["M_i"] = [{"constant": 0.5}]
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert "exactly 2 entries" in exc.value.reason


def test_complex_coordinates_roundtrip():
    scenario = extremal_scenario("COR_2_2", {"rho": 0.6}, field="complex",
                                 scenario_id="complex-cone")
    data = scenario_to_dict(scenario)
    assert data["function"]["e"][0] == [1.0, 0.0]
    again = scenario_from_dict(data)
    assert report_to_json(run(again)) == report_to_json(run(scenario))


def test_scenario_roundtrip_preserves_report():
    scenario = _load_fixture("cor23_extremal.json")
    clone = scenario_from_dict(scenario_to_dict(scenario))
    assert report_to_json(run(clone)) == report_to_json(run(scenario))


def test_run_report_determinism():
    a = report_to_json(run(_load_fixture("cor23_extremal.json")))
    b = report_to_json(run(_load_fixture("cor23_extremal.json")))
    assert a == b


def test_csv_format():
    report = run(_load_fixture("cor23_extremal.json"))
    text = report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "cor23-extremal"
    assert cells[1] == "COR_2_3"
    assert cells[5] == "holds"
    assert float(cells[2]) == pytest.approx(0.4, abs=1e-12)


def test_save_scenario_roundtrip(tmp_path):
    scenario = extremal_scenario("COR_2_4", {"r": 0.5}, scenario_id="roundtrip")
    path = tmp_path / "roundtrip.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded.id == "roundtrip"
    assert run(loaded).rollup == "holds"


# --------------------------------------------------------------------------
# CLI

def test_cli_check_exit_codes(tmp_path, capsys):
    assert main(["check", str(DATA / "cor23_extremal.json")]) == 0
    assert main(["check", str(DATA / "ball_hypothesis_fail.json")]) == 2
    assert main(["check", str(DATA / "dominance_tau_edge.json")]) == 1
    assert main(["check", str(DATA / "invalid_odd_N.json")]) == 3
    assert main(["check", str(tmp_path / "missing.json")]) == 3
    capsys.readouterr()


def test_cli_check_writes_reports(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    assert main(["check", str(DATA / "cor23_extremal.json"), "--out", str(out_json)]) == 0
    assert main(["check", str(DATA / "cor23_extremal.json"), "--out", str(out_csv)]) == 0
    data = json.loads(out_json.read_text())
    assert data["rollup"] == "holds"
    assert out_csv.read_text().startswith(CSV_HEADER)
    capsys.readouterr()


def test_cli_extremal_fixture_generation(tmp_path, capsys):
    fixture = tmp_path / "cor22.json"
    code = main(["extremal", "--bound", "COR_2_2", "--rho", "0.6",
                 "--scenario-out", str(fixture)])
    assert code == 0
    scenario = load_scenario(fixture)
    assert scenario.bounds[0].params.rho == 0.6
    out = capsys.readouterr().out
    assert "equality gap" in out


def test_cli_extremal_family(capsys):
    assert main(["extremal", "--bound", "THM_3_1", "--n-family", "2"]) == 0
    capsys.readouterr()


def test_cli_extremal_band_flags(tmp_path, capsys):
    fixture = tmp_path / "cor23.json"
    assert main(["extremal", "--bound", "COR_2_3", "--m", "1", "--M", "4",
                 "--scenario-out", str(fixture)]) == 0
    scenario = load_scenario(fixture)
    assert scenario.bounds[0].params.m == 1.0
    assert scenario.bounds[0].params.M == 4.0
    capsys.readouterr()


def test_cli_fuzz_smoke(tmp_path, capsys):
    out = tmp_path / "fuzz.json"
    code = main(["fuzz", "--bound", "COR_2_2", "--trials", "25", "--seed", "42",
                 "--dim", "4", "--field", "complex", "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["holds"] == 25
    assert summary["violated"] == 0
    capsys.readouterr()


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--bound", "COR_2_2", "--param", "rho",
                 "--from", "0.05", "--to", "0.95", "--steps", "7",
                 "--emit", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "parameter,value,lhs,rhs,margin,extremal_gap"
    assert len(lines) == 8
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[4])) <= 1e-9  # margin column: extremal tightness
    capsys.readouterr()


def test_cli_sweep_truncates_out_of_range(capsys):
    code = main(["sweep", "--bound", "COR_2_2", "--param", "rho",
                 "--from", "0.5", "--to", "1.1", "--steps", "4"])
    captured = capsys.readouterr()
    assert "skipped" in captured.err
    assert code == 0


def test_cli_sweep_cor25_rhs_formula(capsys):
    code = main(["sweep", "--bound", "COR_2_5", "--param", "M",
                 "--from", "1.0", "--to", "10.0", "--steps", "10"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 11
    for line in lines[1:]:
        cells = line.split(",")
        M = float(cells[1])
        # m is fixed at 1 by the default base parameters
        assert float(cells[3]) == pytest.approx((M - 1.0) ** 2 / (4.0 * (M + 1.0)),
                                                abs=1e-12)


def test_cli_sweep_single_step_equals_run(capsys):
    assert main(["sweep", "--bound", "COR_2_3", "--param", "M",
                 "--from", "4.0", "--to", "4.0", "--steps", "1"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2
    cells = out[1].split(",")
    # matches the COR_2_3 extremal run: lhs = rhs = 0.4
    assert float(cells[2]) == pytest.approx(0.4, abs=1e-12)
    assert float(cells[3]) == pytest.approx(0.4, abs=1e-12)


def test_cli_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "revtri.cli", "check", str(DATA / "cor23_extremal.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "holds" in proc.stdout


@pytest.mark.parametrize("sid", ['a,"b"\nc', "cr\rid", 'say "hi"', "plain-id"])
def test_csv_report_round_trips_the_scenario_id(sid):
    report = run(extremal_scenario("COR_2_2", {"rho": 0.6}, n_panels=8, scenario_id=sid))
    text = report_to_csv(report)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == CSV_HEADER.split(",")
    assert len(rows) == 2 and len(rows[1]) == 7 and rows[1][:2] == [sid, "COR_2_2"]
    # an id that needs no quotes is written as it stands
    assert text.splitlines()[1].startswith("plain-id,") == (sid == "plain-id")
