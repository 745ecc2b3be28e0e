"""The four benchmark workloads: inputs, one timed op, the correctness gate.

Inputs derive from the workload seed only.  Expected outputs were recorded
by ``record.py`` for ``CLASSES`` input sets; a seed selects the set
``seed % CLASSES``, so every seed's outputs can be checked against the
recording.  Each workload exposes:

* ``setup()``: writes its input files and builds ``self.ops`` (one pass);
* ``run_op(op)``: the timed call;
* ``count(op)``: how many ops ``run_op`` performed (a fuzz call runs several trials);
* ``values(op, out)``: the outputs the gate compares (``verdicts`` plus named numbers);
* ``replay(tracer, op, out)``: the traced re-run of the same op (see ``replay.py``).

``reference_work()`` is the calibration that runs interleave with the ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import revtri
from revtri import cli

import replay

CLASSES = 16
REL_TOL = 1e-9
HOLDS = "holds"

# Per-bound campaign of the acceptance suite (tests/test_acceptance.py::CAMPAIGN).
CAMPAIGN = {
    "THM_2_1": dict(seed=101, d=4, field="complex"),
    "COR_2_2": dict(seed=42, d=4, field="complex"),
    "COR_2_3": dict(seed=102, d=4, field="real"),
    "COR_2_4": dict(seed=103, d=4, field="complex"),
    "COR_2_5": dict(seed=104, d=4, field="real"),
    "MULT_A": dict(seed=105, d=4, field="real"),
    "MULT_B": dict(seed=106, d=4, field="complex"),
    "MULT_C": dict(seed=9, d=4, field="real"),
    "KARAMATA": dict(seed=107, d=1, field="complex"),
    "THM_3_1": dict(seed=7, d=8, field="real", n_family=3),
    "COR_3_2": dict(seed=108, d=8, field="real", n_family=3),
    "COR_3_3": dict(seed=109, d=8, field="complex", n_family=3),
    "COR_3_4": dict(seed=110, d=8, field="real", n_family=4),
    "COR_3_5": dict(seed=111, d=8, field="real", n_family=3),
    "PROP_4_1": dict(seed=112, d=1, field="complex"),
    "PROP_4_2": dict(seed=113, d=1, field="complex"),
    "PROP_4_3": dict(seed=114, d=1, field="complex"),
}
FAMILIES = {
    "unit": ("THM_2_1", "COR_2_2", "COR_2_3", "COR_2_4", "COR_2_5",
             "MULT_A", "MULT_B", "MULT_C", "KARAMATA"),
    "family": ("THM_3_1", "COR_3_2", "COR_3_3", "COR_3_4", "COR_3_5"),
    "complex": ("PROP_4_1", "PROP_4_2", "PROP_4_3"),
}

FUZZ_TRIALS = 5           # trials per fuzz() call; one pass is 17 calls
FUZZ_PANELS = 512
CLOSED_PANELS = 65536
SAMPLES_PANELS = 8192
CLI_PANELS = 512
CLI_FUZZ = dict(bound="COR_3_3", trials=20, dim=8, field="complex", n_family=3)


def close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def campaign_args(bound_id: str, offset: int) -> tuple[int, dict]:
    cfg = dict(CAMPAIGN[bound_id])
    return cfg.pop("seed") + offset, cfg


# --------------------------------------------------------------------------
# closed-form scenario files (the file format of the README)

def _coords(fieldname: str, v) -> list:
    if fieldname == "real":
        return [float(x) for x in np.real(v)]
    return [[float(x.real), float(x.imag)] for x in v]


def _frame(rng, fieldname: str, d: int, n: int) -> list[np.ndarray]:
    """n orthonormal vectors of K^d."""
    a = rng.standard_normal((d, n))
    if fieldname == "complex":
        a = a + 1j * rng.standard_normal((d, n))
    q, _ = np.linalg.qr(a)
    return [q[:, i] for i in range(n)]


def _unit_bounds(rng, c: float, p: float, dist: float) -> list[dict]:
    """All eight unit-reference bounds for a function with constant norm ``c``,
    projection ``p = Re<f, e>`` and distance ``dist = ||f - e||``; every
    hypothesis holds with a relative margin of at least 5%."""
    perp_sq = c * c - p * p
    w = float(rng.uniform(1.0, 9.0))
    k0 = (c - p) * rng.uniform(1.2, 1.6) + 0.01
    k1 = (k0 - (c - p)) * rng.uniform(0.2, 0.8)
    rho = dist + rng.uniform(0.2, 0.6) * (0.98 - dist)
    m = p * rng.uniform(0.3, 0.7)
    M = p + perp_sq / (p - m) * rng.uniform(1.3, 2.5) + 0.01
    r0 = dist * rng.uniform(1.1, 1.4)
    eps = 0.05 * rng.uniform()
    R0 = math.sqrt(eps * eps + perp_sq) * rng.uniform(1.1, 1.4)
    return [
        {"bound_id": "THM_2_1", "params": {"k": {"sinusoid": [k0, k1, w]}}},
        {"bound_id": "COR_2_2", "params": {"rho": rho}},
        {"bound_id": "COR_2_3", "params": {"m": m, "M": M}},
        {"bound_id": "COR_2_4", "params": {"r": {"linear": [r0, r0 * rng.uniform(1.0, 1.3)]}}},
        {"bound_id": "COR_2_5", "params": {
            "m": {"linear": [p - eps - R0, p + eps - R0]},
            "M": {"linear": [p - eps + R0, p + eps + R0]}}},
        {"bound_id": "MULT_A", "params": {"K": c / p * rng.uniform(1.05, 1.4)}},
        {"bound_id": "MULT_B", "params": {"rho": rho}},
        {"bound_id": "MULT_C", "params": {"m": m, "M": M}},
    ]


def _scenario(sid, fieldname, d, n_panels, function, reference, bounds) -> dict:
    return {"id": sid, "field": fieldname, "d": d, "interval": [0.0, 1.0], "N": n_panels,
            "function": function, "reference": reference, "bounds": bounds,
            "tolerances": {}}


def cone_file(rng, sid, fieldname, d, n_panels) -> dict:
    """alpha e + s(t) beta u, with the sign of the u part flipping at the midpoint node."""
    e, u = _frame(rng, fieldname, d, 2)
    alpha, beta = rng.uniform(0.8, 1.2), rng.uniform(0.1, 0.4)
    bounds = _unit_bounds(rng, math.hypot(alpha, beta), alpha, math.hypot(alpha - 1.0, beta))
    function = {"variant": "cone", "e": _coords(fieldname, e), "u": _coords(fieldname, u),
                "alpha": alpha, "beta": beta}
    return _scenario(sid, fieldname, d, n_panels, function, {"e": _coords(fieldname, e)}, bounds)


def ball_file(rng, sid, fieldname, d, n_panels) -> dict:
    """e + rho (cos(wt) u + sin(wt) v): constant norm sqrt(1 + rho^2), distance rho to e."""
    e, = _frame(rng, fieldname, d, 1)
    rho = rng.uniform(0.1, 0.4)
    bounds = _unit_bounds(rng, math.sqrt(1.0 + rho * rho), 1.0, rho)
    function = {"variant": "ball_perturbation", "e": _coords(fieldname, e), "rho": rho,
                "omega": rng.uniform(2.0, 12.0)}
    return _scenario(sid, fieldname, d, n_panels, function, {"e": _coords(fieldname, e)}, bounds)


def family_file(rng, sid, fieldname, d, n, n_panels) -> dict:
    """c(t) sum(e_i)/sqrt(n) with every family bound.  With x = c/sqrt(n):
    <f, e_i> = x, ||f||^2 = n x^2 and ||f - C e_i||^2 = (C - x)^2 + (n - 1) x^2."""
    members = _frame(rng, fieldname, d, n)
    sq = math.sqrt(n)
    c0 = rng.uniform(0.9, 1.1) / sq
    c1 = c0 * rng.uniform(0.2, 0.45)
    w = rng.uniform(1.0, 9.0)
    x_ends = ((c0 - c1) / sq, (c0 + c1) / sq)
    dist_max = max(math.sqrt(n * x * x - 2.0 * x + 1.0) for x in x_ends)
    kappa = 1.0 - 1.0 / sq
    dominance, rhos, ms, Ms, radii, lows, highs = [], [], [], [], [], [], []
    for _ in range(n):
        scale = kappa * rng.uniform(1.1, 1.5)
        dominance.append({"sinusoid": [scale * c0 + 0.01, scale * c1, w]})
        rhos.append(dist_max + rng.uniform(0.2, 0.6) * (0.98 - dist_max))
        m = x_ends[0] * rng.uniform(0.2, 0.5)
        ms.append(m)
        Ms.append(max(x + (n - 1) * x * x / (x - m) for x in x_ends) * rng.uniform(1.2, 1.6))
        r0 = dist_max * rng.uniform(1.05, 1.3)
        radii.append({"linear": [r0, r0 * rng.uniform(1.0, 1.2)]})
        # centre n x(t), radius (1 + delta) x(t) sqrt(n (n - 1)): both follow c(t)
        spread = (1.0 + rng.uniform(0.1, 0.5) * (math.sqrt(n / (n - 1)) - 1.0)) \
            * math.sqrt(n * (n - 1))
        lows.append({"sinusoid": [(n - spread) * c0 / sq, (n - spread) * c1 / sq, w]})
        highs.append({"sinusoid": [(n + spread) * c0 / sq, (n + spread) * c1 / sq, w]})
    family = [_coords(fieldname, v) for v in members]
    bounds = [
        {"bound_id": "THM_3_1", "params": {"M_i": dominance}},
        {"bound_id": "COR_3_2", "params": {"rho_i": rhos}},
        {"bound_id": "COR_3_3", "params": {"m_i": ms, "M_i": Ms}},
        {"bound_id": "COR_3_4", "params": {"r_i": radii}},
        {"bound_id": "COR_3_5", "params": {"m_i": lows, "M_i": highs}},
    ]
    function = {"variant": "family_symmetric", "family": family,
                "c": {"sinusoid": [c0, c1, w]}}
    return _scenario(sid, fieldname, d, n_panels, function, {"family": family}, bounds)


def curve_file(rng, sid, n_panels, linear: bool) -> dict:
    """r(t) exp(i phi(t)) with r in [1-a, 1+a], phi in [psi-b, psi+b], around e = exp(i psi)."""
    psi = rng.uniform(0.3, 1.2)
    a, b = rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2)
    if linear:
        r, phi = {"linear": [1.0 - a, 1.0 + a]}, {"linear": [psi + b, psi - b]}
    else:
        r = {"sinusoid": [1.0, a, rng.uniform(1.0, 9.0)]}
        phi = {"sinusoid": [psi, b, rng.uniform(1.0, 9.0)]}
    top = psi + b
    theta = top + rng.uniform(0.3, 0.7) * (math.pi / 2.0 - top)
    ball = math.sqrt(a * a + 2.0 * (1.0 + a) * (1.0 - math.cos(b)))
    p_lo, p_hi = (1.0 - a) * math.cos(b), 1.0 + a
    m = p_lo * rng.uniform(0.3, 0.7)
    M = p_hi + ((1.0 + a) * math.sin(b)) ** 2 / (p_lo - m) * rng.uniform(1.2, 2.0)
    alpha, beta = math.cos(psi), math.sin(psi)
    box_lo = (1.0 - a) * min(math.cos(psi + b) / alpha, math.sin(psi - b) / beta)
    box_hi = (1.0 + a) * max(math.cos(psi - b) / alpha, math.sin(psi + b) / beta)
    bounds = [
        {"bound_id": "KARAMATA", "params": {"theta": theta}},
        {"bound_id": "PROP_4_1", "params": {"rho": ball * rng.uniform(1.2, 1.8)}},
        {"bound_id": "PROP_4_2", "params": {"m": m, "M": M}},
        {"bound_id": "PROP_4_3", "params": {"k": {"constant": box_lo * rng.uniform(0.6, 0.9)},
                                            "K": {"constant": box_hi * rng.uniform(1.1, 1.5)}}},
    ]
    function = {"variant": "complex_curve", "r": r, "phi": phi}
    return _scenario(sid, "complex", 1, n_panels, function, {"alpha_beta": [alpha, beta]},
                     bounds)


def write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# calibration: the kinds of work the program does (JSON decode, float parsing,
# Python loops over small arrays, reductions over large ones) on fixed inputs,
# without a call into revtri.  On a shared 2-vCPU host, the ratio of a
# cold CLI call to it varied 3-4% between 20 s blocks where the call itself
# varied 8-10%; for check_samples 4-6% against 5-11%.

_CAL_DOC = json.dumps([[i * 0.3701, i * 1.3107] for i in range(6000)])
_CAL_ROWS = np.linspace(0.0, 1.0, 4 * 16385).reshape(16385, 4)
_CAL_WEIGHTS = np.ones(16385)


def reference_work() -> float:
    values = np.array([complex(float(a), float(b)) for a, b in json.loads(_CAL_DOC)])
    total = float(values.real.sum())
    for _ in range(20):
        total += float(_CAL_WEIGHTS @ np.linalg.norm(_CAL_ROWS, axis=1))
    for _ in range(300):
        x = np.arange(9.0)
        total += float(x @ x)
    return total


# --------------------------------------------------------------------------
# workloads

@dataclass
class Op:
    key: str                      # label of the op; keys the recorded values
    args: tuple = ()
    meta: dict = field(default_factory=dict)


class Workload:
    name = ""
    expected_verdict = HOLDS

    def __init__(self, seed: int, workdir: Path, expected: dict | None):
        self.cls = seed % CLASSES
        self.workdir = workdir
        self.expected = expected["classes"][self.cls] if expected else None
        self.ops: list[Op] = []

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.cls, WORKLOADS.index(type(self))])

    def count(self, op: Op) -> int:
        return 1

    def check(self, op: Op, out) -> list[str]:
        """One failure cause per failed op; empty when every output matches."""
        verdicts, values = self.values(op, out)
        label = f"{self.name} {op.key}"
        bad = [v for v in verdicts if v != self.expected_verdict]
        if bad:
            return [f"{label}: verdict {bad[0]!r}, expected {self.expected_verdict!r}"]
        return [f"{label}: {cause}" for cause in compare(values, self.expected[op.key])][:1]


def compare(got: dict, want: dict) -> list[str]:
    causes = []
    for name, expected in want.items():
        actual = got.get(name)
        if actual is None or len(actual) != len(expected):
            causes.append(f"{name} has {actual!r}, recorded {expected!r}")
            continue
        for i, (g, w) in enumerate(zip(actual, expected)):
            if not close(g, w):
                causes.append(f"{name}[{i}] = {g!r}, recorded {w!r}")
    return causes


def report_values(report) -> tuple[list[str], dict]:
    return ([r.verdict for r in report.results],
            {"lhs": [r.lhs for r in report.results], "rhs": [r.rhs for r in report.results]})


class FuzzCampaign(Workload):
    """One op is one fuzz trial; ``run_op`` is one fuzz() call of FUZZ_TRIALS trials."""

    name = "fuzz_campaign"

    def setup(self) -> None:
        self.ops = []
        for bound_id in CAMPAIGN:
            seed, cfg = campaign_args(bound_id, 1000 * self.cls)
            self.ops.append(Op(bound_id, (bound_id, FUZZ_TRIALS, seed), cfg))

    def run_op(self, op: Op):
        return revtri.fuzz(*op.args, n_panels=FUZZ_PANELS, keep_reports=True, **op.meta)

    def count(self, op: Op) -> int:
        return FUZZ_TRIALS

    def values(self, op: Op, summary) -> tuple[list[str], dict]:
        verdicts, values = [], {"lhs": [], "rhs": []}
        for report in summary.reports:
            v, lr = report_values(report)
            verdicts += v
            values["lhs"] += lr["lhs"]
            values["rhs"] += lr["rhs"]
        values["worst_margin"] = [summary.worst_margin]
        values["worst_margin_trial"] = [summary.worst_margin_trial]
        return verdicts, values

    def check(self, op: Op, summary) -> list[str]:
        """Per trial: verdict and lhs/rhs; per call: worst margin and its trial."""
        want = self.expected[op.key]
        failed = {}
        for i, report in enumerate(summary.reports):
            result = report.results[0]
            if result.verdict != self.expected_verdict:
                failed[i] = f"verdict {result.verdict!r}, expected {self.expected_verdict!r}"
            elif not (close(result.lhs, want["lhs"][i]) and close(result.rhs, want["rhs"][i])):
                failed[i] = (f"lhs/rhs {result.lhs!r}/{result.rhs!r}, recorded "
                             f"{want['lhs'][i]!r}/{want['rhs'][i]!r}")
        worst = want["worst_margin_trial"][0]
        if (summary.worst_margin_trial != worst
                or not close(summary.worst_margin, want["worst_margin"][0])):
            failed.setdefault(worst, f"worst margin {summary.worst_margin!r} at trial "
                                     f"{summary.worst_margin_trial}, recorded "
                                     f"{want['worst_margin'][0]!r} at trial {worst}")
        return [f"{self.name} {op.key} seed {op.args[2]} trial {i}: {cause}"
                for i, cause in sorted(failed.items())]

    def replay(self, tracer, op: Op, summary) -> list[str]:
        bound_id, trials, seed = op.args
        causes = []
        for trial in range(trials):
            with tracer.op(op.key):
                report, _ = replay.replay_fuzz_trial(tracer, bound_id, seed, trial,
                                                     n_panels=FUZZ_PANELS, **op.meta)
            causes += replay.same_report(f"{op.key} trial {trial}", report,
                                         summary.reports[trial])
        return causes


class CheckWorkload(Workload):
    """One op is the in-process ``revtri check`` path on one file."""

    def run_op(self, op: Op):
        report = revtri.run(revtri.load_scenario(op.args[0]))
        return report, revtri.report_to_json(report), revtri.report_to_csv(report)

    def values(self, op: Op, out) -> tuple[list[str], dict]:
        return report_values(out[0])

    def replay(self, tracer, op: Op, out) -> list[str]:
        with tracer.op(op.key):
            report, _ = replay.replay_check(tracer, op.args[0])
            with tracer.span("scenario.serialize"):
                texts = revtri.report_to_json(report), revtri.report_to_csv(report)
        if texts != out[1:]:
            return [f"{op.key}: replayed report differs from run()"]
        return []


class CheckClosed(CheckWorkload):
    name = "check_closed"

    def setup(self) -> None:
        rng = self.rng()
        files = [
            cone_file(rng, "cone-real", "real", 3, CLOSED_PANELS),
            cone_file(rng, "cone-complex", "complex", 2, CLOSED_PANELS),
            ball_file(rng, "ball-real", "real", 4, CLOSED_PANELS),
            ball_file(rng, "ball-complex", "complex", 3, CLOSED_PANELS),
            family_file(rng, "family-real", "real", 5, 3, CLOSED_PANELS),
            family_file(rng, "family-complex", "complex", 4, 2, CLOSED_PANELS),
            curve_file(rng, "curve-sinusoid", CLOSED_PANELS, linear=False),
            curve_file(rng, "curve-linear", CLOSED_PANELS, linear=True),
        ]
        self.ops = []
        for data in files:
            path = self.workdir / f"closed-{data['id']}.json"
            write_json(path, data)
            self.ops.append(Op(data["id"], (path,)))


class CheckSamples(CheckWorkload):
    name = "check_samples"

    def setup(self) -> None:
        self.ops = []
        for bound_id in CAMPAIGN:
            seed, cfg = campaign_args(bound_id, 1000 * (self.cls + CLASSES))
            scenario = revtri.generate_scenario(bound_id, seed, 0, n_panels=SAMPLES_PANELS, **cfg)
            path = self.workdir / f"samples-{bound_id}.json"
            revtri.save_scenario(scenario, path)
            self.ops.append(Op(bound_id, (path,)))


_BOUND_LINE = re.compile(r"^\s+(\w+)\s+(\w+)\s+lhs=(\S+) rhs=(\S+) ")
_FUZZ_LINE = re.compile(r"^fuzz \w+: (\d+)/(\d+) holds")
_WORST_LINE = re.compile(r"^\s+worst margin (\S+) at trial (\d+)")


def parse_cli(command: str, stdout: str) -> tuple[list[str], dict]:
    """Verdicts and numbers printed by one CLI command."""
    lines = stdout.splitlines()
    if command in ("check", "extremal"):
        rows = [m.groups() for m in map(_BOUND_LINE.match, lines) if m]
        return ([r[1] for r in rows],
                {"lhs": [float(r[2]) for r in rows], "rhs": [float(r[3]) for r in rows]})
    if command == "fuzz":
        holds, trials = next(m.groups() for m in map(_FUZZ_LINE.match, lines) if m)
        margin, trial = next(m.groups() for m in map(_WORST_LINE.match, lines) if m)
        verdicts = [HOLDS] * int(holds) + ["not_holds"] * (int(trials) - int(holds))
        return verdicts, {"worst_margin": [float(margin)], "worst_margin_trial": [int(trial)]}
    header, *rows = (line.split(",") for line in lines)
    col = {name: i for i, name in enumerate(header)}
    return [], {"lhs": [float(r[col["lhs"]]) for r in rows],
                "rhs": [float(r[col["rhs"]]) for r in rows]}


class CliCold(Workload):
    """One op is one ``python -m revtri`` subprocess."""

    name = "cli_cold"

    def setup(self) -> None:
        rng = self.rng()
        path = self.workdir / "cli-check.json"
        write_json(path, cone_file(rng, "cli-cone", "real", 3, CLI_PANELS))
        m = round(float(rng.uniform(0.5, 1.5)), 6)
        M = round(m * float(rng.uniform(2.0, 6.0)), 6)
        lo, hi = round(float(rng.uniform(0.05, 0.2)), 6), round(float(rng.uniform(0.8, 0.95)), 6)
        fz = CLI_FUZZ
        self.ops = [
            Op("check", ("check", str(path)), {"path": path}),
            Op("fuzz", ("fuzz", "--bound", fz["bound"], "--trials", str(fz["trials"]),
                        "--seed", str(5000 + self.cls), "--dim", str(fz["dim"]),
                        "--field", fz["field"], "--n-family", str(fz["n_family"])),
               {"seed": 5000 + self.cls}),
            Op("extremal", ("extremal", "--bound", "COR_2_3", "--m", repr(m), "--M", repr(M)),
               {"m": m, "M": M}),
            Op("sweep", ("sweep", "--bound", "COR_2_2", "--param", "rho", "--from", repr(lo),
                         "--to", repr(hi), "--steps", "19"),
               {"from": lo, "to": hi, "steps": 19}),
        ]

    def run_op(self, op: Op):
        proc = subprocess.run([sys.executable, "-m", "revtri", *op.args],
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout

    def values(self, op: Op, out) -> tuple[list[str], dict]:
        code, stdout = out
        verdicts, values = parse_cli(op.key, stdout)
        if code != 0:
            verdicts.append(f"exit code {code}")
        elif op.key == "sweep":
            verdicts.append(HOLDS)   # exit 0: no row violated or failed its hypothesis
        return verdicts, values

    def replay(self, tracer, op: Op, out) -> list[str]:
        code, stdout = out
        with tracer.op(op.key):
            with tracer.span("cli.interpreter"):
                subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
            with tracer.span("cli.import"):
                subprocess.run([sys.executable, "-c", "import revtri.cli"], check=True,
                               timeout=60)
            captured = io.StringIO()
            with tracer.span(f"cli.command.{op.key}"):
                with contextlib.redirect_stdout(captured), \
                        contextlib.redirect_stderr(io.StringIO()):
                    in_process = cli.main(list(op.args))
            replayed = self._replay_stages(tracer, op)
        causes = []
        for i, (report, scenario) in enumerate(replayed):
            causes += replay.same_report(f"{op.key} scenario {i}", report, revtri.run(scenario))
        if (in_process, captured.getvalue()) != (code, stdout):
            causes.append(f"{op.key}: in-process cli.main output differs from the subprocess")
        return causes

    def _replay_stages(self, tracer, op: Op) -> list[tuple]:
        """Replay the stages the command runs: (replayed report, scenario) per run()."""
        if op.key == "check":
            report, scenario = replay.replay_check(tracer, op.meta["path"])
            return [(report, scenario)]
        if op.key == "fuzz":
            return [replay.replay_fuzz_trial(tracer, CLI_FUZZ["bound"], op.meta["seed"], trial,
                                             d=CLI_FUZZ["dim"], field=CLI_FUZZ["field"],
                                             n_family=CLI_FUZZ["n_family"])
                    for trial in range(CLI_FUZZ["trials"])]
        if op.key == "extremal":
            scenarios = [revtri.extremal_scenario("COR_2_3", {"m": op.meta["m"],
                                                              "M": op.meta["M"]})]
        else:
            values = np.linspace(op.meta["from"], op.meta["to"], op.meta["steps"])
            scenarios = [revtri.extremal_scenario("COR_2_2", {"rho": float(v)},
                                                  scenario_id="sweep-cor_2_2-rho")
                         for v in values]
        return [(replay.replay_run(tracer, s), s) for s in scenarios]


WORKLOADS = [FuzzCampaign, CheckClosed, CheckSamples, CliCold]
BY_NAME = {w.name: w for w in WORKLOADS}
