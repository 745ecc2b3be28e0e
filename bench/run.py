#!/usr/bin/env python3
"""revtri benchmark: one workload per fresh process, or all four in turn.

    python3 bench/run.py --workload check_closed --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 3 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run times the workload's ops untraced and reports the
end-to-end metrics; with ``--trace 1`` every op is followed by a traced replay
of the same op (``replay.py``) and the run reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record (every metric, sample counts, failures, environment) is written
to ``bench/out/``, and a traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("fuzz_campaign", "check_closed", "check_samples", "cli_cold")
SETUP_REPEATS = 3
# The tail percentile of each workload: the highest that keeps ten samples beyond
# it in a 20 s run (a cold CLI call takes about 0.25-0.35 s, so cli_cold gets p80).
TAIL = {"fuzz_campaign": 90, "check_closed": 90, "check_samples": 90, "cli_cold": 80}
# What the issue calls the per-op timings of each workload.
OP_NAMES = {"fuzz_campaign": "fuzz_trial_s", "check_closed": "check_s",
            "check_samples": "check_s", "cli_cold": "cli_s"}
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Op times go to BENCHMARK.json relative to workloads.reference_work(), which runs
# between ops every CALIBRATE_EVERY seconds: on a shared host the speed of the
# machine drifts by 10-30% over seconds to minutes, and the ratio cancels most of it.
# Each op is divided by the median of the last three calibrations.
CALIBRATE_EVERY = 0.25
# Fresh-process imports of revtri timed besides this process's own; set-up takes their median.
IMPORT_PROBES = 4
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_rel": "ratio",
              "op_tail_rel": "ratio", "op_mean_rel": "ratio"}
PER_LAYER = {
    "scenario.run_s": "s", "scenario.run_s.share": "ratio",
    "gridfn.materialize_s": "s", "gridfn.materialize_s.share": "ratio",
    "gridfn.nodes": "count", "gridfn.bytes": "bytes",
    "quadrature.integrals_s": "s", "quadrature.integrals_s.share": "ratio",
    "quadrature.defect_s": "s", "quadrature.defect_s.share": "ratio",
    "quadrature.nodes_per_s": "1/s",
    "bounds.hypothesis_s": "s", "bounds.hypothesis_s.share": "ratio",
    "bounds.eval_s": "s", "bounds.eval_s.share": "ratio", "bounds.evals": "count",
    "bounds.verdict.holds": "count", "bounds.verdict.violated": "count",
    "bounds.verdict.hypothesis_failed": "count",
    "hilbert.gram_s": "s", "hilbert.gram_s.share": "ratio",
    "trace.overhead_ratio": "ratio",
}
MAX_FAILURES_SHOWN = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


# --------------------------------------------------------------------------
# environment record

def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    clock = time.get_clock_info("perf_counter")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ.get(k) for k in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "timer": f"{clock.implementation}, resolution {clock.resolution:g} s",
        "machine_settings": "unchanged: no machine setting was changed to steady the numbers",
    }


# --------------------------------------------------------------------------
# one workload in this process

def timed_op(wl, op):
    """(seconds, output, failure causes) of one untraced op."""
    start = time.perf_counter()
    try:
        out = wl.run_op(op)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return time.perf_counter() - start, None, [f"{wl.name} {op.key}: raised {exc!r}"] \
            * wl.count(op)
    seconds = time.perf_counter() - start
    try:
        causes = wl.check(op, out)
    except Exception as exc:  # unparsable or incomplete output
        causes = [f"{wl.name} {op.key}: output not checkable: {exc!r}"] * wl.count(op)
    return seconds, out, causes


def measure(wl, seconds: float, traced: bool, tracer=None) -> dict:
    """Whole passes over ``wl.ops`` until ``seconds`` have gone by."""
    from workloads import reference_work
    per_op, per_op_rel, per_pass, per_pass_rel = [], [], [], []
    time_by_key, count_by_key = defaultdict(float), defaultdict(int)
    attempted, failed_ops, causes, replay_causes, traced_time = 0, 0, [], [], 0.0
    passes, calibrations, next_calibration, rel_busy = 0, [], 0.0, 0.0
    deadline = time.perf_counter() + seconds
    while True:
        pass_time, pass_rel, pass_count = 0.0, 0.0, 0
        for op in wl.ops:
            if time.perf_counter() >= next_calibration:
                start = time.perf_counter()
                reference_work()
                calibrations.append(time.perf_counter() - start)
                next_calibration = time.perf_counter() + CALIBRATE_EVERY
            calibration = statistics.median(calibrations[-3:])
            dt, out, failed = timed_op(wl, op)
            n = wl.count(op)
            attempted += n
            causes += failed
            pass_time += dt
            pass_rel += dt / calibration
            pass_count += n
            rel_busy += dt / calibration
            per_op.append(dt / n)
            per_op_rel.append(dt / n / calibration)
            time_by_key[op.key] += dt
            count_by_key[op.key] += n
            mismatched = []
            if traced and out is not None:
                first = len(tracer.spans)
                try:
                    mismatched = wl.replay(tracer, op, out)
                except Exception as exc:  # the replay could not follow the program
                    mismatched = [f"{wl.name} {op.key}: replay raised {exc!r}"]
                traced_time += sum(end - start for _, _, _, name, start, end
                                   in tracer.spans[first:] if name == "op")
                replay_causes += mismatched
            failed_ops += min(n, max(len(failed), len(mismatched)))
        per_pass.append(pass_time / pass_count)
        per_pass_rel.append(pass_rel / pass_count)
        passes += 1
        if time.perf_counter() >= deadline:
            break
    return {"per_op": per_op, "per_op_rel": per_op_rel, "per_pass": per_pass,
            "per_pass_rel": per_pass_rel, "rel_busy": rel_busy, "time_by_key": time_by_key,
            "count_by_key": count_by_key, "attempted": attempted, "failed": failed_ops,
            "causes": causes, "replay_causes": replay_causes, "passes": passes,
            "traced_time": traced_time, "calibrations": calibrations}


def timing_metrics(name: str, wl_module, m: dict) -> dict:
    """name -> (value, unit, note) of the untraced run."""
    # fuzz trials run inside one fuzz() call, so a fuzz sample is a pass's time per trial
    unit = "pass" if name == "fuzz_campaign" else "op"
    samples, rel = m[f"per_{unit}"], m[f"per_{unit}_rel"]
    busy = sum(m["time_by_key"].values())
    tail_q = TAIL[name]
    tail, beyond = percentile(samples, tail_q)
    n = len(samples)
    cal = statistics.median(m["calibrations"])
    per_cal = f"op seconds / median of the 3 latest calibrations, of {len(m['calibrations'])}"
    out = {
        "ops_per_s": (m["attempted"] / busy, "1/s", f"{m['attempted']} ops in {busy:.3f} s"),
        "op_s_p50": (statistics.median(samples), "s", f"n={n}"),
        "op_s_tail": (tail, "s", f"p{tail_q}, n={n}, {beyond} samples beyond"
                      + ("" if beyond >= 10 else " (fewer than 10: not qualified)")),
        "calibration_s": (cal, "s", f"n={len(m['calibrations'])}"),
    }
    out["op_p50_rel"] = (statistics.median(rel), "ratio", f"median, {per_cal}")
    out["op_tail_rel"] = (percentile(rel, tail_q)[0], "ratio", f"p{tail_q}, {per_cal}")
    out["op_mean_rel"] = (m["rel_busy"] / m["attempted"], "ratio", f"mean, {per_cal}")
    op_name = OP_NAMES[name]
    out[f"{op_name}_p50"] = out["op_s_p50"]
    out[f"{op_name}_p{tail_q}"] = out["op_s_tail"]
    if name == "fuzz_campaign":
        out["fuzz_trials_per_s"] = out["ops_per_s"]
        for family, bounds in wl_module.FAMILIES.items():
            trials = sum(m["count_by_key"][b] for b in bounds)
            spent = sum(m["time_by_key"][b] for b in bounds)
            out[f"fuzz_trials_per_s.{family}"] = (trials / spent, "trials/s",
                                                  f"{trials} trials")
    return out


def use_checkout() -> None:
    """Pin BLAS threads and import the program from ``src/``, here and in subprocesses.

    Must run before numpy is imported: OpenBLAS reads its thread count once, at load.
    """
    os.environ.update(PINNED_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(BENCH)]


def run_workload(args) -> int:
    use_checkout()
    start = time.perf_counter()
    import revtri  # noqa: F401  (timed: the import is part of set-up)
    imports = [time.perf_counter() - start]
    probe = "import time; t = time.perf_counter(); import revtri; print(time.perf_counter() - t)"
    for _ in range(IMPORT_PROBES):
        imports.append(float(subprocess.run([sys.executable, "-c", probe], check=True,
                                            capture_output=True, text=True).stdout))

    import replay
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    expected = json.loads((BENCH / "expected" / f"{args.workload}.json").read_text())
    wl = workloads.BY_NAME[args.workload](args.seed, workdir, expected)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            workloads.reference_work()
            for op in wl.ops:            # untimed warm-up pass
                timed_op(wl, op)
            setups.append(time.perf_counter() - start)
        tracer = replay.Tracer() if args.trace else None
        m = measure(wl, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = m["causes"] + m["replay_causes"]
    metrics = {"failed_ratio": (m["failed"] / m["attempted"], "ratio",
                                f"{m['failed']} of {m['attempted']} ops")}
    if args.trace:
        metrics.update({k: (v, u, "") for k, (v, u) in
                        replay.layer_metrics(tracer, m["passes"]).items()})
        metrics["trace.overhead_ratio"] = (m["traced_time"] / sum(m["time_by_key"].values()),
                                           "ratio", "traced op time / untraced op time")
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
        absent = [name for name in PER_LAYER if name not in metrics]
        reported = {name: metrics.get(name, (0.0, unit))[:2]
                    for name, unit in PER_LAYER.items()}
    else:
        import_s = statistics.median(imports)
        metrics["setup_s"] = (import_s + statistics.median(setups), "s",
                              f"median of {len(imports)} imports {import_s:.4f} s + median "
                              f"of {SETUP_REPEATS} set-ups {[round(s, 4) for s in setups]}")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics["peak_rss_mb"] = (rss, "MB", "ru_maxrss of this process")
        metrics.update(timing_metrics(args.workload, workloads, m))
        absent = []
        reported = {name: metrics[name][:2] for name in END_TO_END}

    env = environment()
    env["replay_missing_api"] = replay.MISSING_API
    record = {"workload": args.workload, "seed": args.seed, "input_class": wl.cls,
              "seconds": args.seconds, "trace": args.trace, "passes": m["passes"],
              "environment": env, "absent": absent, "failures": failures,
              "metrics": {k: {"value": v[0], "unit": v[1], "note": v[2]}
                          for k, v in sorted(metrics.items())}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed} (input set {wl.cls})  "
          f"{m['passes']} passes  trace {args.trace}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    for key, (value, unit, note) in sorted(metrics.items()):
        print(f"metric {key} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name in absent:
        print(f"absent {name}")
    for cause in failures[:MAX_FAILURES_SHOWN]:
        print(f"failure {cause}")
    print(json.dumps({"correct": not failures, "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "revtri" / "__init__.py").is_file():
        print(f"error: the program is not in this checkout ({SRC / 'revtri'} is missing)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
