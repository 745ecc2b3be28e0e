"""Traced replay of what ``run()`` and ``load_scenario()`` do, one span per public call.

The replay is made of the benchmark's own calls into each layer; nothing is
timed inside the program.  A check is replayed as ``json.loads`` ->
``scenario_from_dict`` -> ``materialize`` -> per bound ``eval_*_bound`` ->
``defect``; the report built from those results must be byte-identical to
the one ``run()`` gives, which shows the replay is faithful.  Three probes
time a layer the program only reaches inside other calls: the bound's
``check_*`` (``bounds.hypothesis``), one ``norm_integral`` plus
``bochner_integral`` (``quadrature.integrals``) and ``check_orthonormal`` on
the scenario's family (``hilbert.gram``).  They run outside the
``scenario.run`` span, so ``scenario.run_s`` stays the cost of ``run()``.

If a public function the replay uses is gone, ``scenario.run`` calls
``run()`` instead and the layers below it are reported absent.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import revtri

REPLAY_API = ("scenario_from_dict", "materialize", "eval_unit_bound", "eval_family_bound",
              "eval_complex_bound", "check_dominance", "check_scaled_dominance", "check_ball",
              "check_band", "check_box_complex", "check_arg", "norm_integral",
              "bochner_integral", "defect", "check_orthonormal", "RunReport", "ScalarProfile",
              "HVector", "DEFAULT_RULE")
MISSING_API = [name for name in REPLAY_API if not hasattr(revtri, name)]

FAMILY = ("THM_3_1", "COR_3_2", "COR_3_3", "COR_3_4", "COR_3_5")
COMPLEX = ("PROP_4_1", "PROP_4_2", "PROP_4_3")


class Tracer:
    """Spans kept in memory: (op id, span id, parent id, name, start, end)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_keys: list[str] = []
        self.counts: list[dict] = []      # per op: counter name -> value
        self._stack: list[int] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((len(self.op_keys) - 1, span_id, parent, name, start, end))

    @contextlib.contextmanager
    def op(self, key: str):
        self.op_keys.append(key)
        self.counts.append(defaultdict(float))
        with self.span("op"):
            yield

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[-1][name] += value

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["op", "id", "parent", "name", "start", "end"],
                                    "ops": self.op_keys, "spans": self.spans}),
                        encoding="utf-8")


def _hypothesis(f, reference, entry, tol):
    """The public check_* call(s) behind one bound's hypothesis."""
    bid, p = entry.bound_id, entry.params
    const = lambda value: revtri.ScalarProfile.constant(f.grid, value)  # noqa: E731
    if bid in FAMILY:
        members = reference.family.members
        if bid == "THM_3_1":
            return [revtri.check_dominance(f, e, k, tol.tau_hyp, tol.tau_on)
                    for e, k in zip(members, p.dominance_profiles)]
        if bid == "COR_3_2":
            return [revtri.check_ball(f, e, const(r), tol.tau_hyp, tol.tau_on)
                    for e, r in zip(members, p.rhos)]
        if bid == "COR_3_3":
            return [revtri.check_band(f, e, const(m), const(M), "inner", tol.tau_hyp, tol.tau_on)
                    for e, m, M in zip(members, p.ms, p.Ms)]
        if bid == "COR_3_4":
            return [revtri.check_ball(f, e, r, tol.tau_hyp, tol.tau_on)
                    for e, r in zip(members, p.r_profiles)]
        return [revtri.check_band(f, e, m, M, "norm", tol.tau_hyp, tol.tau_on)
                for e, m, M in zip(members, p.m_profiles, p.M_profiles)]
    if bid in COMPLEX or bid == "KARAMATA":
        alpha, beta = reference.alpha, reference.beta
        e = revtri.HVector("complex", [complex(alpha, beta)])
        if bid == "KARAMATA":
            return revtri.check_arg(f, p.theta, tol.tau_hyp)
        if bid == "PROP_4_1":
            return revtri.check_ball(f, e, const(p.rho), tol.tau_hyp)
        if bid == "PROP_4_2":
            return revtri.check_band(f, e, const(p.m), const(p.M), "inner", tol.tau_hyp)
        return revtri.check_box_complex(f, alpha, beta, p.m_profile, p.M_profile, tol.tau_hyp)
    e = reference.e
    if bid == "THM_2_1":
        return revtri.check_dominance(f, e, p.k, tol.tau_hyp, tol.tau_on)
    if bid in ("COR_2_2", "MULT_B"):
        return revtri.check_ball(f, e, const(p.rho), tol.tau_hyp, tol.tau_on)
    if bid in ("COR_2_3", "MULT_C"):
        return revtri.check_band(f, e, const(p.m), const(p.M), "inner", tol.tau_hyp, tol.tau_on)
    if bid == "COR_2_4":
        return revtri.check_ball(f, e, p.r, tol.tau_hyp, tol.tau_on)
    if bid == "COR_2_5":
        return revtri.check_band(f, e, p.m_profile, p.M_profile, "norm", tol.tau_hyp,
                                 tol.tau_on)
    return revtri.check_scaled_dominance(f, e, p.K, tol.tau_hyp, tol.tau_on)


def _evaluate(f, reference, entry, rule, tol):
    bid = entry.bound_id
    if bid in FAMILY:
        return revtri.eval_family_bound(f, reference.family, entry.params, bid, rule,
                                        tol.tau_hyp, tol.tau_on)
    if bid in COMPLEX:
        return revtri.eval_complex_bound(f, reference.alpha, reference.beta, entry.params,
                                         bid, rule, tol.tau_hyp)
    return revtri.eval_unit_bound(f, reference.e, entry.params, bid, rule, tol.tau_hyp,
                                  tol.tau_on)


def _rollup(results) -> str:
    verdicts = {r.verdict for r in results}
    for verdict in ("violated", "hypothesis_failed"):
        if verdict in verdicts:
            return verdict
    return "holds"


def replay_run(tracer: Tracer, scenario):
    """The stages of ``run(scenario)`` as separate spans; returns the rebuilt report."""
    if MISSING_API:
        with tracer.span("scenario.run"):
            return revtri.run(scenario)
    rule, tol = revtri.DEFAULT_RULE, scenario.tolerances
    with tracer.span("scenario.run"):
        with tracer.span("gridfn.materialize"):
            f = revtri.materialize(scenario.function, scenario.grid, scenario.field,
                                   scenario.d, tol.tau_on)
        results = []
        for entry in scenario.bounds:
            with tracer.span("bounds.eval"):
                results.append(_evaluate(f, scenario.reference, entry, rule, tol))
        with tracer.span("quadrature.defect"):
            defect = revtri.defect(f, rule)
        report = revtri.RunReport(scenario.id, tuple(results), defect, _rollup(results),
                                  scenario.provenance)
    for entry in scenario.bounds:
        with tracer.span("bounds.hypothesis"):
            _hypothesis(f, scenario.reference, entry, tol)
    with tracer.span("quadrature.integrals"):
        revtri.norm_integral(f, rule)
        revtri.bochner_integral(f, rule)
    if scenario.reference.family is not None:
        with tracer.span("hilbert.gram"):
            revtri.check_orthonormal(scenario.reference.family.members, tol.tau_on)
    nodes = f.values.size
    tracer.add("gridfn.nodes", nodes)
    tracer.add("gridfn.bytes", f.values.nbytes + sum(v.nbytes for v in (f.jumps or {}).values()))
    tracer.add("quadrature.nodes", nodes)
    tracer.add("bounds.evals", len(results))
    for r in results:
        tracer.add(f"bounds.verdict.{r.verdict}")
    return report


def replay_fuzz_trial(tracer: Tracer, bound_id: str, seed: int, trial: int, **kwargs):
    """``generate_scenario`` then the stages of ``run``; returns (report, scenario)."""
    with tracer.span("fuzz.generate"):
        scenario = revtri.generate_scenario(bound_id, seed, trial, **kwargs)
    report = replay_run(tracer, scenario)
    tracer.add("fuzz.trials")
    if report.rollup == "hypothesis_failed":
        tracer.add("fuzz.hypothesis_failed")
    return report, scenario


def replay_check(tracer: Tracer, path: Path):
    """``load_scenario`` then ``run`` as spans; returns (report, scenario)."""
    with tracer.span("scenario.json_decode"):
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text)
    tracer.add("scenario.bytes_in", len(text.encode("utf-8")))
    with tracer.span("scenario.parse"):
        if MISSING_API:
            scenario = revtri.load_scenario(path)
        else:
            scenario = revtri.scenario_from_dict(data, source=Path(path).name)
    return replay_run(tracer, scenario), scenario


def same_report(label: str, replayed, reference) -> list[str]:
    """Byte comparison of the JSON and CSV reports."""
    if (revtri.report_to_json(replayed) == revtri.report_to_json(reference)
            and revtri.report_to_csv(replayed) == revtri.report_to_csv(reference)):
        return []
    return [f"{label}: replayed report differs from run()"]


# --------------------------------------------------------------------------
# per-layer metrics

TIMED = {  # metric -> span name
    "scenario.json_decode_s": "scenario.json_decode",
    "scenario.parse_s": "scenario.parse",
    "scenario.run_s": "scenario.run",
    "scenario.serialize_s": "scenario.serialize",
    "gridfn.materialize_s": "gridfn.materialize",
    "quadrature.integrals_s": "quadrature.integrals",
    "quadrature.defect_s": "quadrature.defect",
    "bounds.hypothesis_s": "bounds.hypothesis",
    "bounds.eval_s": "bounds.eval",
    "hilbert.gram_s": "hilbert.gram",
    "fuzz.generate_s": "fuzz.generate",
    "cli.interpreter_s": "cli.interpreter",
    "cli.command_s.check": "cli.command.check",
    "cli.command_s.fuzz": "cli.command.fuzz",
    "cli.command_s.extremal": "cli.command.extremal",
    "cli.command_s.sweep": "cli.command.sweep",
}
PER_PASS_COUNTS = ("scenario.bytes_in", "bounds.evals", "bounds.verdict.holds",
                   "bounds.verdict.violated", "bounds.verdict.hypothesis_failed", "fuzz.trials")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """name -> (value, unit) for every layer the traced run reached.

    A ``_s`` metric is the median over the ops that reach the layer of the
    time spent in it per op; ``<name>.share`` is the layer's part of all
    traced op time.  Counts are per pass over the workload's input set,
    except ``gridfn.nodes`` and ``gridfn.bytes``, which are medians per op.
    """
    per_op = defaultdict(lambda: defaultdict(float))   # span name -> op -> seconds
    op_time = 0.0
    for op_id, _, _, name, start, end in tracer.spans:
        if name == "op":
            op_time += end - start
        else:
            per_op[name][op_id] += end - start
    out = {}
    for metric, span in TIMED.items():
        times = per_op.get(span)
        if times:
            out[metric] = (statistics.median(times.values()), "s")
            out[metric + ".share"] = (sum(times.values()) / op_time, "ratio")
    fuzz_ops = per_op.get("fuzz.generate", {})
    if fuzz_ops:
        runs = [t for op_id, t in per_op["scenario.run"].items() if op_id in fuzz_ops]
        out["fuzz.run_s"] = (statistics.median(runs), "s")
        out["fuzz.run_s.share"] = (sum(runs) / op_time, "ratio")
    if "cli.interpreter" in per_op and "cli.import" in per_op:
        out["cli.import_s"] = (statistics.median(per_op["cli.import"].values())
                               - statistics.median(per_op["cli.interpreter"].values()), "s")
    totals = defaultdict(float)
    for counts in tracer.counts:
        for name, value in counts.items():
            totals[name] += value
    for name in PER_PASS_COUNTS:
        if name in totals or name.startswith("bounds.verdict."):
            out[name] = (totals.get(name, 0.0) / passes,
                         "bytes" if name == "scenario.bytes_in" else "count")
    for name, unit in (("gridfn.nodes", "count"), ("gridfn.bytes", "bytes")):
        values = [c[name] for c in tracer.counts if name in c]
        if values:
            out[name] = (statistics.median(values), unit)
    integrals = per_op.get("quadrature.integrals")
    if integrals:
        out["quadrature.nodes_per_s"] = (totals["quadrature.nodes"] / sum(integrals.values()),
                                         "1/s")
    if totals.get("fuzz.trials"):
        out["fuzz.hypothesis_failed_ratio"] = (
            totals.get("fuzz.hypothesis_failed", 0.0) / totals["fuzz.trials"], "ratio")
    return out
