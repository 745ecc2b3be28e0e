"""Smoke test of the benchmark itself (about two minutes):

    python3 -m pytest -q bench/test_bench.py

Each workload runs for a fraction of a second, untraced and traced, through
the same command line the benchmark is driven by.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
LAYER_UNITS = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}

PRINTED_END_TO_END = {
    "fuzz_campaign": {"fuzz_trials_per_s", "fuzz_trials_per_s.unit",
                      "fuzz_trials_per_s.family", "fuzz_trials_per_s.complex"},
    "check_closed": {"check_s_p50", "check_s_p90"},
    "check_samples": {"check_s_p50", "check_s_p90"},
    "cli_cold": {"cli_s_p50", "cli_s_p80"},
}
SCENARIO_LAYER = {"scenario.json_decode_s", "scenario.parse_s", "scenario.bytes_in"}
FUZZ_LAYER = {"fuzz.generate_s", "fuzz.run_s", "fuzz.trials", "fuzz.hypothesis_failed_ratio"}
PRINTED_PER_LAYER = {
    "fuzz_campaign": FUZZ_LAYER,
    "check_closed": SCENARIO_LAYER | {"scenario.serialize_s"},
    "check_samples": SCENARIO_LAYER | {"scenario.serialize_s"},
    "cli_cold": SCENARIO_LAYER | FUZZ_LAYER | {
        "cli.interpreter_s", "cli.import_s", "cli.command_s.check", "cli.command_s.fuzz",
        "cli.command_s.extremal", "cli.command_s.sweep"},
}


def bench(workload: str, trace: int, root: Path = BENCH.parent):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.splitlines()


def printed_metrics(lines: list[str]) -> dict[str, str]:
    """name -> unit of every ``metric <name> = <value> <unit>`` line."""
    return {line.split()[1]: line.split()[4] for line in lines if line.startswith("metric ")}


def test_contract_names_what_run_reports():
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert LAYER_UNITS == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc, lines = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = printed_metrics(lines)
    assert {"setup_s", "peak_rss_mb", "failed_ratio"} | PRINTED_END_TO_END[workload] <= set(printed)
    assert printed["failed_ratio"] == "ratio"
    assert any(line.startswith("env blas_threads: 1") for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_replays_run_byte_for_byte(workload):
    proc, lines = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    # correct includes the byte comparison of every replayed report with run()
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert not [line for line in lines if line.startswith("absent ")]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert PRINTED_PER_LAYER[workload] <= set(printed_metrics(lines))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_wrong_expected_verdict_raises_failed_ratio(workload, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(run.SRC))
    import workloads
    expected = json.loads((BENCH / "expected" / f"{workload}.json").read_text())
    wl = workloads.BY_NAME[workload](7, tmp_path, expected)
    wl.setup()
    assert run.measure(wl, 0.01, traced=False)["failed"] == 0
    wl.expected_verdict = "violated"
    m = run.measure(wl, 0.01, traced=False)
    assert m["failed"] == m["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc, lines = bench("fuzz_campaign", 0, root=tmp_path)
    assert proc.returncode != 0
    assert not lines
