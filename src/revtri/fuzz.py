"""Seeded hypothesis-by-construction fuzzing of every certified bound.

Each trial draws a scenario whose hypothesis holds at every grid node by
construction, so the trial tests the bound itself rather than the checker.
Randomness is counter-based (Philox keyed by the seed, counter set from
the trial index), so trials are order-independent and each one can be
reproduced in isolation.  Random functions are band-limited trigonometric
node data (at most 8 harmonics), keeping quadrature error well below the
bound margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial

import numpy as np

from . import bounds as B
from .bounds import BoundParams, VIOLATED
from .errors import InputError
from .gridfn import (GRID_CACHE, FunctionSpec, Grid, GridFunction, ScalarProfile, _describable,
                     grid_nodes, row_norms)
from .hilbert import COMPLEX, REAL, HVector, OrthonormalFamily, orthonormalize, vector_norm
from .quadrature import integrate_trials
from .scenario import (
    BoundEntry,
    REF_DIRECTION,
    REF_FAMILY,
    REF_UNIT,
    Reference,
    RunReport,
    Scenario,
    Tolerances,
    _plain,
    _scenario_tree,
    run,
)

MAX_HARMONICS = 8
MAX_COUNTEREXAMPLE_DUMPS = 5
#: A margin below -_COUNTEREXAMPLE_SLACK x err_budget is a counterexample, not noise.
_COUNTEREXAMPLE_SLACK = 10.0

#: Node values (T d (N+1) entries) in one chunk of a fuzz() call's trials, whose integrals
#: one pass computes: at N = 512 and d = 4 a chunk holds 31 trials, at N = 65536 one.
CHUNK_ENTRIES = 2 ** 16


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, order-free stream for one trial (Philox counter block of 64-bit words)."""
    if not (0 <= seed < 2 ** 64 and 0 <= trial < 2 ** 64):
        raise InputError(f"seed and trial must lie in [0, 2**64), got {seed!r} and {trial!r}")
    counter = np.array([0, 0, 0, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


def _reused_trial_rng():
    """A function (seed, trial) -> ``trial_rng(seed, trial)`` for calls that share one
    seed.  It builds one generator, and for each later trial sets its bit generator's
    state to the fresh state with the counter [0, 0, 0, trial]: a Philox is counter-based,
    so that is the stream a new one would give, without building one (which gathers
    entropy for a seed sequence it does not use)."""
    rng = fresh = None

    def stream(seed: int, trial: int) -> np.random.Generator:
        nonlocal rng, fresh
        if rng is None:
            rng = trial_rng(seed, trial)
            fresh = rng.bit_generator.state
        else:
            fresh["state"]["counter"][3] = trial
            rng.bit_generator.state = fresh
        return rng
    return stream


# --------------------------------------------------------------------------
# random building blocks

def _coeffs(rng, shape, field):
    if field == COMPLEX:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


@lru_cache(maxsize=GRID_CACHE)
def _trig_table(key: tuple[str, str, int]) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k t at the nodes t of the grid with ``key`` (rescaled to
    [0, 1]), for k = 1..MAX_HARMONICS: two read-only (N+1, MAX_HARMONICS) arrays.

    C order matters: a path's first ``n_modes`` columns then give the same products,
    bit for bit, as a table of ``n_modes`` columns."""
    a, b = float.fromhex(key[0]), float.fromhex(key[1])
    t = (grid_nodes(key) - a) / (b - a)
    phases = 2.0 * math.pi * np.outer(t, np.arange(1, MAX_HARMONICS + 1))
    cos, sin = np.cos(phases), np.sin(phases)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def _trig_path(rng, grid: Grid, d: int, field: str):
    """Band-limited path (N+1, d): random drift plus <= MAX_HARMONICS modes."""
    n_modes = int(rng.integers(1, MAX_HARMONICS + 1))
    decay = 1.0 / np.arange(1, n_modes + 1)
    a = _coeffs(rng, (n_modes, d), field) * decay[:, None]
    b = _coeffs(rng, (n_modes, d), field) * decay[:, None]
    c0 = _coeffs(rng, (d,), field)
    cos, sin = _trig_table(grid.key)
    return c0[None, :] + cos[:, :n_modes] @ a + sin[:, :n_modes] @ b


def _bounded_path(rng, grid: Grid, d: int, field: str):
    """Path with max node norm exactly 1 (zero path cannot occur)."""
    path = _trig_path(rng, grid, d, field)
    top = float(np.max(row_norms(path)))
    return path / top


def _smooth_scalar(rng, grid: Grid, lo: float, hi: float):
    """Smooth real samples ranging inside [lo, hi]."""
    raw = _trig_path(rng, grid, 1, REAL)[:, 0]
    top = float(np.max(np.abs(raw)))
    if top == 0.0:
        raw = np.zeros(grid.n_nodes)
    else:
        raw = raw / top
    return lo + (hi - lo) * (raw + 1.0) / 2.0


def _unit_vector(rng, field: str, d: int) -> HVector:
    v = _coeffs(rng, (d,), field)
    return HVector(field, v / vector_norm(v))


def _orthofamily(rng, field: str, d: int, n: int) -> OrthonormalFamily:
    mat = _coeffs(rng, (n, d), field)
    return orthonormalize(tuple(HVector(field, row) for row in mat))


def _direction(rng) -> tuple[float, float]:
    psi = rng.uniform(0.1, math.pi / 2.0 - 0.1)
    return math.cos(psi), math.sin(psi)


def _samples_profile(grid: Grid, values) -> ScalarProfile:
    return ScalarProfile(grid, np.maximum(np.asarray(values, dtype=np.float64), 0.0))


# --------------------------------------------------------------------------
# per-bound generators; each returns (f, reference, params), the constants read from the
# node tables of f, which run() then reuses

def _gen_dominance(rng, grid, field, d, n_family):
    e = _unit_vector(rng, field, d)
    f = GridFunction(grid, field, rng.uniform(0.5, 2.0) * _trig_path(rng, grid, d, field))
    gap = f.norms() - f.projections(e.coords)
    slack = rng.uniform(0.0, 0.5)
    k = _samples_profile(grid, np.maximum(gap, 0.0) + slack)
    return f, Reference(REF_UNIT, e=e), BoundParams(k=k)


def _ball_function(rng, grid, field, d, e, rho_max=0.95):
    """(f, rho) with f inside the ball of radius rho around e at every node."""
    rho = rng.uniform(0.05, rho_max)
    eta = rng.uniform(0.2, 0.98)
    w = _bounded_path(rng, grid, d, field)
    return GridFunction(grid, field, e.coords[None, :] + rho * eta * w), rho


def _reference_e(rng, field, d, kind):
    """A unit reference e and its Reference: random in K^d, or a direction alpha + i beta."""
    if kind == REF_DIRECTION:
        alpha, beta = _direction(rng)
        return HVector(COMPLEX, [complex(alpha, beta)]), Reference(kind, alpha=alpha, beta=beta)
    e = _unit_vector(rng, field, d)
    return e, Reference(kind, e=e)


def _gen_ball(rng, grid, field, d, n_family, kind=REF_UNIT):
    e, reference = _reference_e(rng, field, d, kind)
    f, rho = _ball_function(rng, grid, field, d, e)
    return f, reference, BoundParams(rho=rho)


def _gen_ball_profile(rng, grid, field, d, n_family):
    e = _unit_vector(rng, field, d)
    amp = rng.uniform(0.1, 1.4)
    w = _bounded_path(rng, grid, d, field)
    f = GridFunction(grid, field, e.coords[None, :] + amp * w)
    r = _samples_profile(grid, f.distances(e.coords) + rng.uniform(0.01, 0.3))
    return f, Reference(REF_UNIT, e=e), BoundParams(r=r)


def _band_constants(rng, p, q):
    """(m, M) with the band condition holding at every node, for node projections ``p``
    onto the reference and squared node norms ``q``."""
    M = (1.0 + rng.uniform(0.05, 0.5)) * float(np.max(q / p))
    cap = float(np.min((M * p - q) / (M - p)))
    m = rng.uniform(0.1, 0.9) * cap
    return m, M


def _disk_function(rng, grid, field, d, e, m, M):
    """f with node values sampled inside the band disk around ((M+m)/2) e."""
    center = 0.5 * (M + m)
    radius = 0.5 * (M - m)
    eta = rng.uniform(0.2, 0.98)
    w = _bounded_path(rng, grid, d, field)
    return GridFunction(grid, field, center * e.coords[None, :] + radius * eta * w)


def _gen_band(rng, grid, field, d, n_family, kind=REF_UNIT):
    e, reference = _reference_e(rng, field, d, kind)
    m = rng.uniform(0.05, 1.5)
    M = m + rng.uniform(0.01, 3.0)
    return _disk_function(rng, grid, field, d, e, m, M), reference, BoundParams(m=m, M=M)


def _gen_band_profiles(rng, grid, field, d, n_family):
    e = _unit_vector(rng, field, d)
    c0 = _smooth_scalar(rng, grid, 0.6, 1.6)
    xi = _smooth_scalar(rng, grid, 0.1, 0.9)
    R = c0 * xi
    eta = rng.uniform(0.2, 0.98)
    w = _bounded_path(rng, grid, d, field)
    f = GridFunction(grid, field, c0[:, None] * e.coords[None, :] + (R * eta)[:, None] * w)
    m = _samples_profile(grid, c0 - R)
    M = _samples_profile(grid, c0 + R)
    return f, Reference(REF_UNIT, e=e), BoundParams(m_profile=m, M_profile=M)


def _gen_scaled_dominance(rng, grid, field, d, n_family):
    e = _unit_vector(rng, field, d)
    f, _ = _ball_function(rng, grid, field, d, e, rho_max=0.9)
    K = float(np.max(f.norms() / f.projections(e.coords))) * (1.0 + rng.uniform(0.0, 0.5))
    return f, Reference(REF_UNIT, e=e), BoundParams(K=max(K, 1.0))


def _gen_arg_cone(rng, grid, field, d, n_family):
    theta = rng.uniform(0.15, math.pi / 2.0 - 0.05)
    r = _smooth_scalar(rng, grid, 0.2, 2.0)
    raw = _trig_path(rng, grid, 1, REAL)[:, 0]
    top = float(np.max(np.abs(raw))) or 1.0
    phi = theta * rng.uniform(0.2, 0.95) * raw / top
    f = GridFunction(grid, field, (r * np.exp(1j * phi))[:, None])
    alpha, beta = _direction(rng)
    return f, Reference(REF_DIRECTION, alpha=alpha, beta=beta), BoundParams(theta=theta)


def _symmetric_base(rng, grid, field, d, family, c_lo, c_hi, amp):
    s_unit = family.sum_vector().coords / math.sqrt(family.n)
    c = _smooth_scalar(rng, grid, c_lo, c_hi)
    w = _bounded_path(rng, grid, d, field)
    return GridFunction(grid, field, c[:, None] * s_unit[None, :] + amp * w)


def _gen_family_dominance(rng, grid, field, d, n_family):
    family = _orthofamily(rng, field, d, n_family)
    f = _symmetric_base(rng, grid, field, d, family, 0.5, 1.5, rng.uniform(0.0, 0.5))
    norms, proj = f.norms(), f.projections(family.matrix())
    profiles = tuple(
        _samples_profile(grid, np.maximum(norms - proj[:, i], 0.0) + rng.uniform(0.0, 0.4))
        for i in range(n_family)
    )
    return f, Reference(REF_FAMILY, family=family), BoundParams(dominance_profiles=profiles)


def _gen_family_ball(rng, grid, field, d, n_family):
    family = _orthofamily(rng, field, d, n_family)
    n = family.n
    center_dist = math.sqrt(1.0 - 1.0 / n)
    room = 1.0 - center_dist
    s_unit = family.sum_vector().coords / math.sqrt(n)
    gamma = rng.uniform(0.0, 0.25 * room) * _smooth_scalar(rng, grid, -1.0, 1.0)
    eps = rng.uniform(0.0, 0.25 * room)
    w = _bounded_path(rng, grid, d, field)
    f = GridFunction(grid, field,
                     (1.0 / math.sqrt(n) + gamma)[:, None] * s_unit[None, :] + eps * w)
    rhos = []
    for e in family.members:
        top = float(np.max(f.distances(e.coords)))
        rhos.append(top + rng.uniform(0.05, 0.9) * (1.0 - top))
    return f, Reference(REF_FAMILY, family=family), BoundParams(rhos=tuple(rhos))


def _gen_family_band(rng, grid, field, d, n_family):
    family = _orthofamily(rng, field, d, n_family)
    amp = rng.uniform(0.02, 0.4 * 0.8 / math.sqrt(n_family))
    f = _symmetric_base(rng, grid, field, d, family, 0.8, 1.5, amp)
    q, proj = f.norms() ** 2, f.projections(family.matrix())
    ms, Ms = zip(*(_band_constants(rng, p, q) for p in proj.T))
    return f, Reference(REF_FAMILY, family=family), BoundParams(ms=ms, Ms=Ms)


def _gen_family_ball_profiles(rng, grid, field, d, n_family):
    family = _orthofamily(rng, field, d, n_family)
    f = _symmetric_base(rng, grid, field, d, family, 0.5, 1.5, rng.uniform(0.0, 0.5))
    profiles = [_samples_profile(grid, f.distances(e.coords) + rng.uniform(0.01, 0.5))
                for e in family.members]
    return f, Reference(REF_FAMILY, family=family), BoundParams(r_profiles=tuple(profiles))


def _gen_family_band_profiles(rng, grid, field, d, n_family):
    family = _orthofamily(rng, field, d, n_family)
    amp = rng.uniform(0.02, 0.4 * 0.8 / math.sqrt(n_family))
    f = _symmetric_base(rng, grid, field, d, family, 0.8, 1.5, amp)
    q, proj = f.norms() ** 2, f.projections(family.matrix())
    m_profiles, M_profiles = [], []
    for p in proj.T:
        c0 = (1.0 + rng.uniform(0.05, 0.6)) * q / (2.0 * p)
        dist = np.sqrt(np.maximum(q - 2.0 * c0 * p + c0 * c0, 0.0))
        R = dist + rng.uniform(0.05, 0.9) * (c0 - dist)
        m_profiles.append(_samples_profile(grid, c0 - R))
        M_profiles.append(_samples_profile(grid, c0 + R))
    return f, Reference(REF_FAMILY, family=family), BoundParams(
        m_profiles=tuple(m_profiles), M_profiles=tuple(M_profiles))


def _gen_complex_box(rng, grid, field, d, n_family):
    alpha, beta = _direction(rng)
    base_re = _smooth_scalar(rng, grid, 0.3, 2.0)
    base_im = _smooth_scalar(rng, grid, 0.3, 2.0)
    f = GridFunction(grid, field, (alpha * base_re + 1j * beta * base_im)[:, None])
    kappa = rng.uniform(0.02, 0.4)
    k = _samples_profile(grid, np.minimum(base_re, base_im) * (1.0 - kappa))
    K = _samples_profile(grid, np.maximum(base_re, base_im) * (1.0 + kappa))
    return f, Reference(REF_DIRECTION, alpha=alpha, beta=beta), BoundParams(
        m_profile=k, M_profile=K)


GENERATORS = {
    B.THM_2_1: _gen_dominance,
    B.COR_2_2: _gen_ball,
    B.COR_2_3: _gen_band,
    B.COR_2_4: _gen_ball_profile,
    B.COR_2_5: _gen_band_profiles,
    B.MULT_A: _gen_scaled_dominance,
    B.MULT_B: _gen_ball,
    B.MULT_C: _gen_band,
    B.KARAMATA: _gen_arg_cone,
    B.THM_3_1: _gen_family_dominance,
    B.COR_3_2: _gen_family_ball,
    B.COR_3_3: _gen_family_band,
    B.COR_3_4: _gen_family_ball_profiles,
    B.COR_3_5: _gen_family_band_profiles,
    B.PROP_4_1: partial(_gen_ball, kind=REF_DIRECTION),
    B.PROP_4_2: partial(_gen_band, kind=REF_DIRECTION),
    B.PROP_4_3: _gen_complex_box,
}

def generate_scenario(bound_id: str, seed: int, trial: int, d: int = 4,
                      field: str = REAL, n_family: int = 3,
                      n_panels: int = 512) -> Scenario:
    """Deterministic hypothesis-satisfying scenario for (seed, trial) on [0, 1]."""
    return _generate(trial_rng, bound_id, seed, trial, d, field, n_family, n_panels)


def _generate(streams, bound_id: str, seed: int, trial: int, d: int, field: str,
              n_family: int, n_panels: int) -> Scenario:
    """:func:`generate_scenario`, drawing from ``streams(seed, trial)``, a Generator that
    gives the stream of ``trial_rng(seed, trial)``."""
    if bound_id not in GENERATORS:
        raise InputError(f"unknown bound id {bound_id!r}")
    if B.BOUNDS[bound_id].reference == REF_DIRECTION:
        field, d = COMPLEX, 1
    if d < 1:
        raise InputError(f"dimension d must be at least 1, got {d}")
    if bound_id in B.FAMILY_BOUNDS:
        if n_family < 1:
            raise InputError(f"n_family must be at least 1, got {n_family}")
        if n_family > d:
            raise InputError(f"family of {n_family} needs d >= {n_family}")
    rng = streams(seed, trial)
    grid = Grid(0.0, 1.0, n_panels)
    if not _describable(grid.n_nodes, d):
        raise InputError("dimension d is too large for numpy to describe an (N+1, d) array")
    f, reference, params = GENERATORS[bound_id](rng, grid, field, d, n_family)
    provenance = {
        "generator": f"fuzz:{bound_id}",
        "seed": int(seed),
        "trial": int(trial),
        "d": int(d),
        "field": field,
        "n_family": int(n_family) if bound_id in B.FAMILY_BOUNDS else None,
    }
    scenario = Scenario(
        id=f"fuzz-{bound_id}-s{seed}-t{trial}",
        field=field, d=d, grid=grid,
        function=FunctionSpec.samples(f.values),
        reference=reference,
        bounds=(BoundEntry(bound_id, params),),
        tolerances=Tolerances(),
        provenance=provenance,
    )
    vars(scenario)["f"] = f  # fills the cache of Scenario.f: run() reuses the generated f
    return scenario


@dataclass
class FuzzSummary:
    """Aggregate of one fuzzing campaign (one bound, many trials)."""

    bound_id: str
    trials: int
    seed: int
    holds: int = 0
    violated: int = 0
    hypothesis_failed: int = 0
    worst_margin: float = math.inf
    worst_margin_trial: int = -1
    min_defect_slack: float = math.inf
    chain_violations: int = 0
    printed_form_margins: list[float] = dc_field(default_factory=list)
    #: one dict per dumped trial; its "scenario" keeps the node arrays (see :meth:`to_dict`)
    counterexamples: list[dict] = dc_field(default_factory=list)
    reports: list[RunReport] | None = None

    def to_dict(self) -> dict:
        """The summary as JSON data, the dumped scenarios in their file format."""
        return _plain(self._tree())

    def _tree(self) -> dict:
        """:meth:`to_dict` with the node arrays of the dumped scenarios still arrays."""
        out = {
            "bound_id": self.bound_id,
            "trials": self.trials,
            "seed": self.seed,
            "holds": self.holds,
            "violated": self.violated,
            "hypothesis_failed": self.hypothesis_failed,
            "worst_margin": self.worst_margin,
            "worst_margin_trial": self.worst_margin_trial,
            "min_defect_slack": self.min_defect_slack,
            "chain_violations": self.chain_violations,
            "counterexamples": self.counterexamples,
        }
        if self.printed_form_margins:
            margins = np.asarray(self.printed_form_margins)
            out["printed_form"] = {
                "min_margin": float(margins.min()),
                "max_margin": float(margins.max()),
                "mean_margin": float(margins.mean()),
                "negative_count": int(np.sum(margins < 0.0)),
            }
        return out


def _chain_gap(result) -> float | None:
    weak = result.rhs_terms.get("weak_rhs")
    if weak is None:
        return None
    scale = abs(result.rhs) + abs(weak) + 1.0
    return result.rhs - weak - 1e-12 * scale


def fuzz(bound_id: str, trials: int, seed: int, d: int = 4, field: str = REAL,
         n_family: int = 3, n_panels: int = 512, keep_reports: bool = False) -> FuzzSummary:
    """Run ``trials`` hypothesis-by-construction scenarios against one bound.

    Trials are generated in chunks of at most :data:`CHUNK_ENTRIES` node values (and at
    least one trial), each chunk integrated in one pass (:func:`integrate_trials`), then
    judged in trial order by ``run()``.  If generating a trial raises, the trials before
    it are judged first, so the error of an earlier trial wins."""
    if trials < 1:
        raise InputError("need at least one trial")
    summary = FuzzSummary(bound_id, trials, seed,
                          reports=[] if keep_reports else None)
    streams = _reused_trial_rng()
    chunk, failure = [], None
    for trial in range(trials):
        try:
            scenario = _generate(streams, bound_id, seed, trial, d, field, n_family, n_panels)
        except Exception as exc:  # raised once the trials before it are judged
            failure = exc
            break
        if chunk and (len(chunk) + 1) * scenario.f.values.size > CHUNK_ENTRIES:
            _judge(summary, chunk)
            chunk = []
        chunk.append((trial, scenario))
    _judge(summary, chunk)
    if failure is not None:
        raise failure
    return summary


def _judge(summary: FuzzSummary, chunk: list[tuple[int, Scenario]]) -> None:
    """Integrate the chunk's functions in one pass, then run and tally each trial."""
    if chunk:
        integrate_trials([scenario.f for _, scenario in chunk])
    for trial, scenario in chunk:
        report = run(scenario)
        result = report.results[0]
        if result.verdict == B.HOLDS:
            summary.holds += 1
        elif result.verdict == VIOLATED:
            summary.violated += 1
        else:
            summary.hypothesis_failed += 1
        if result.margin < summary.worst_margin:
            summary.worst_margin = result.margin
            summary.worst_margin_trial = trial
        defect_slack = report.defect.value + report.defect.err_est
        summary.min_defect_slack = min(summary.min_defect_slack, defect_slack)
        gap = _chain_gap(result)
        if gap is not None and gap > 0.0:
            summary.chain_violations += 1
        if "printed_margin" in result.diagnostics:
            summary.printed_form_margins.append(result.diagnostics["printed_margin"])
        bad = result.verdict == VIOLATED or (
            result.margin < -_COUNTEREXAMPLE_SLACK * result.err_budget)
        if bad and len(summary.counterexamples) < MAX_COUNTEREXAMPLE_DUMPS:
            summary.counterexamples.append({
                "trial": trial,
                "margin": result.margin,
                "err_budget": result.err_budget,
                "scenario": _scenario_tree(scenario),
            })
        if summary.reports is not None:
            summary.reports.append(report)
