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
import threading
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, partial

import numpy as np

from . import bounds as B
from .bounds import BoundParams, VIOLATED
from .errors import InputError, RevtriError, quoted
from .gridfn import (GRID_CACHE, FunctionSpec, Grid, GridFunction, ScalarProfile, _describable,
                     _frozen, _project, grid_nodes, row_norms)
from .hilbert import (COMPLEX, REAL, _DTYPES, HVector, OrthonormalFamily, _orthonormal_rows,
                      vector_norm)
from .quadrature import defect, integrate_trials
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
    _rollup,
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
    _require_stream(seed, trial)
    counter = np.array([0, 0, 0, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=counter))


def _require_stream(seed: int, trial: int) -> None:
    if not (0 <= seed < 2 ** 64 and 0 <= trial < 2 ** 64):
        raise InputError(f"seed and trial must lie in [0, 2**64), got {seed!r} and {trial!r}")


_THREAD = threading.local()


def _reused_trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The stream of ``trial_rng(seed, trial)`` from this thread's one generator, kept across
    calls, set to a fresh state with the key [seed, 0] and the counter [0, 0, 0, trial]: a
    Philox is counter-based, so that is the stream a new one would give, without building
    one (which gathers entropy for a seed sequence it does not use)."""
    _require_stream(seed, trial)
    if not hasattr(_THREAD, "fresh"):
        _THREAD.rng = trial_rng(seed, trial)
        _THREAD.fresh = _THREAD.rng.bit_generator.state
    _THREAD.fresh["state"]["key"][:] = seed, 0
    _THREAD.fresh["state"]["counter"][3] = trial
    _THREAD.rng.bit_generator.state = _THREAD.fresh
    return _THREAD.rng


# --------------------------------------------------------------------------
# random building blocks

def _in_field(raw):
    """Draws whose first axis holds real and (if two) imaginary parts, as field values."""
    return raw[0] + 1j * raw[1] if len(raw) == 2 else raw[0]


def _coeffs(rng, field, *shape):
    """Standard normal coefficients of ``shape`` in K, a complex one's real parts first."""
    return _in_field(rng.standard_normal((2 if field == COMPLEX else 1, *shape)))


#: 1/k for the modes k = 1..n of a path of n modes, as an (n, 1) column.
_DECAY = [None] + [_frozen(1.0 / np.arange(1.0, n + 1)[:, None])
                   for n in range(1, MAX_HARMONICS + 1)]


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


def _bounded(paths):
    """Paths (T, N+1, d), in C order, scaled in place to a max node norm of exactly 1."""
    tops = row_norms(paths).max(axis=1)
    return np.divide(paths, tops[:, None, None], out=paths)   # a complex division if complex


def _peaks(raw):
    """The largest magnitude of each real path (T, N+1), 1.0 for a zero path."""
    tops = np.abs(raw).max(axis=1)
    tops[tops == 0.0] = 1.0
    return tops[:, None]


def _smooth(paths, lo: float, hi: float):
    """Smooth real samples (T, N+1) ranging inside [lo, hi], of real paths (T, N+1, 1)."""
    raw = paths[..., 0]
    return lo + (hi - lo) * (raw / _peaks(raw) + 1.0) / 2.0


def _unit_vector(rng, field: str, d: int) -> HVector:
    v = _coeffs(rng, field, d)
    return HVector(field, v / vector_norm(v))


def _orthofamily(rng, field: str, d: int, n: int) -> OrthonormalFamily:
    return _orthonormal_rows(field, _coeffs(rng, field, n, d))


def _direction(rng) -> tuple[float, float]:
    psi = rng.uniform(0.1, math.pi / 2.0 - 0.1)
    return math.cos(psi), math.sin(psi)


class _Chunk:
    """The trials of a chunk being generated: each draws from its own stream (see
    :func:`_reused_trial_rng`), and a path it draws computes only its two BLAS products,
    into its rows of that path's stacks.  All other node work runs once per chunk on
    stacks, kept for the judge in :attr:`tables` only (see :meth:`given`)."""

    def __init__(self, seed: int, trials: range, grid: Grid, field: str, d: int, n_family: int):
        self.seed, self.trials = seed, trials
        self.grid, self.field, self.d, self.n_family = grid, field, d, n_family
        self.stacks, self.failure, self.tables, self.made, self.kept = [], None, {}, {}, True

    def draw(self, one) -> list:
        """``one(rng)`` per trial, as columns; the chunk ends before a trial whose draws
        raise, keeping its error (:attr:`failure`), which the first trial raises."""
        rows = []
        for row, trial in enumerate(self.trials):
            self.row, self.next = row, 0
            try:
                rows.append(one(_reused_trial_rng(self.seed, trial)))
            except Exception as exc:
                if not rows:
                    raise
                self.failure, self.trials = exc, self.trials[:row]
                break
        return list(zip(*rows))

    def path(self, rng, d: int | None = None, field: str | None = None) -> None:
        """Draw a path (N+1, d), random drift plus <= MAX_HARMONICS modes, into its rows."""
        d, dtype = d or self.d, _DTYPES[field or self.field]
        parts = 2 if dtype == np.complex128 else 1
        n_modes = int(rng.integers(1, MAX_HARMONICS + 1))
        raw = rng.standard_normal(parts * (2 * n_modes + 1) * d)   # a, b, c0; real parts first
        ab = raw[:-parts * d].reshape(2, parts, n_modes, d).swapaxes(0, 1)
        a, b = _in_field(ab) * _DECAY[n_modes]
        c0 = _in_field(raw[-parts * d:].reshape(parts, d))
        if self.row == 0:
            shape = (len(self.trials), self.grid.n_nodes, d)
            self.stacks.append((np.empty(shape, dtype), np.empty(shape, dtype),
                                np.empty(shape[::2], dtype)))
        cos_part, sin_part, drift = self.stacks[self.next]
        self.next += 1
        cos, sin = _trig_table(self.grid.key)
        np.matmul(cos[:, :n_modes], a, out=cos_part[self.row])
        np.matmul(sin[:, :n_modes], b, out=sin_part[self.row])
        drift[self.row] = c0

    def paths(self) -> list:
        """Each path (T, N+1, d), drift + cos part + sin part, summed over the cos parts."""
        t, stacks, self.stacks = len(self.trials), self.stacks, []
        return [np.add(np.add(cos_part[:t], drift[:t, None], out=cos_part[:t]), sin_part[:t],
                       out=cos_part[:t]) for cos_part, sin_part, drift in stacks]

    def functions(self, fill) -> list:
        """The functions whose node values ``fill(out)`` writes to one (T, d, N+1) stack (a
        fill loops over the nodes), each adopting its row's transpose; norms are kept."""
        self.values = np.empty((len(self.trials), self.d, self.grid.n_nodes),
                               _DTYPES[self.field])
        fill(self.values)
        self.values.setflags(write=False)
        self.tables["values"] = self.values
        self.fs = [GridFunction(self.grid, self.field, row.T) for row in self.values]
        self.norms = self._keep("norms", lambda: row_norms(self.values.transpose(0, 2, 1)))
        return self.fs

    def references(self, vectors) -> np.ndarray:
        """The coordinates of each trial's vector (T, d), or of its family's members (T, n, d)."""
        refs = self.tables["coords"] = np.stack([
            v.matrix() if isinstance(v, OrthonormalFamily) else v.coords for v in vectors])
        return refs

    def distances(self, refs: np.ndarray) -> np.ndarray:
        """||f(t) - e|| (T, n, N+1) for refs (T, n, d), each row ``f.distances(e)``'s bits."""
        x = self.values.transpose(0, 2, 1)[:, None]
        return self._keep("distances", lambda: row_norms(
            np.broadcast_to(x, refs.shape[:2] + x.shape[2:]), refs[:, :, None]))

    def projections(self, refs: np.ndarray) -> np.ndarray:
        """Re<f(t), e> (T, N+1) for refs (T, d), or (T, n, N+1) for a family's (T, n, d),
        each trial's the bits of ``f.projections(refs[t])`` (transposed for a family)."""
        columns = self.values[:, None] if refs.ndim == 3 else self.values
        out = np.empty(refs.shape[:-1] + (self.grid.n_nodes,))
        return self._keep("projections", lambda: _project(columns, refs, out))

    def profiles(self, **values) -> dict:
        """The nonnegative parts of each of ``values``, (T, N+1) or (T, n, N+1), as the
        profile parameter it names, a profile or n of them per trial, adopting the rows of
        one read-only stack (not checked again), which :attr:`tables` keeps by that name."""
        profile = partial(ScalarProfile, self.grid, nonnegative=False)
        for field, value in values.items():
            stack = self.tables[field] = _frozen(np.maximum(value, 0.0))
            self.made[field] = [profile(v) if v.ndim == 1 else tuple(map(profile, v))
                                for v in stack]
        return {field: self.made[field] for field in values}

    def given(self, fs, params: dict) -> dict | None:
        """:attr:`tables` for the judge (see ``bounds.evaluate_trials``) if all were kept and
        ``fs`` and the profiles are the chunk's own (a caller may swap one), else None."""
        pairs = [(fs, self.fs), *((params[field], made) for field, made in self.made.items())]
        return self.tables if self.kept and all(
            a is b for x, y in pairs for a, b in zip(x, y)) else None

    def _keep(self, name: str, compute) -> np.ndarray:
        """``compute()``, kept as ``name`` in :attr:`tables` if computed without a
        floating-point error, else computed again, not kept, as ``f.cached`` keeps one."""
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                table = compute()
        except FloatingPointError:
            self.kept = False
            return compute()
        table.setflags(write=False)
        self.tables[name] = table
        return table


def _symmetric(chunk: _Chunk, families, c, amps, w) -> list:
    """f = c s + amp w: c (T, N+1) times each family's unit sum s, plus bounded paths w."""
    s = np.stack([family.sum_vector().coords / math.sqrt(family.n) for family in families])
    w = np.multiply(_bounded(w), np.array(amps)[:, None, None], out=w).transpose(0, 2, 1)
    return chunk.functions(lambda out: np.add(
        np.multiply(s[:, :, None], c[:, None], out=out), w, out=out))


def _symmetric_trials(chunk: _Chunk, amp: tuple, c_range: tuple, member) -> tuple:
    """Each trial's family, :func:`_symmetric` function (c smooth in ``c_range``, amp in
    ``amp``) and ``member(rng)`` per member, drawn after the paths: as (T, n, ...)."""
    families, amps, _, _, draws = chunk.draw(lambda rng: (
        _orthofamily(rng, chunk.field, chunk.d, chunk.n_family), rng.uniform(*amp),
        chunk.path(rng, 1, REAL), chunk.path(rng), [member(rng) for _ in range(chunk.n_family)]))
    c_path, w = chunk.paths()
    fs = _symmetric(chunk, families, _smooth(c_path, *c_range), amps, w)
    return families, fs, np.array(draws)


def _scaled_paths(chunk: _Chunk, centers, scales) -> list:
    """f = center + scale w for each trial's (d,) center and scale, w its bounded path."""
    w, = chunk.paths()
    w = np.multiply(_bounded(w), np.array(scales)[:, None, None], out=w).transpose(0, 2, 1)
    return chunk.functions(lambda out: np.add(centers[:, :, None], w, out=out))


def _ball_draws(chunk: _Chunk, rng, rho_max=0.95) -> tuple:
    """rho and the scale rho eta of a path w: e + rho eta w lies in the ball B(e, rho)."""
    rho = rng.uniform(0.05, rho_max)
    return rho, rho * rng.uniform(0.2, 0.98), chunk.path(rng)


def _reference_e(rng, field, d, kind):
    """A unit reference e and what its Reference holds: e, or (alpha, beta) of a direction."""
    if kind == REF_DIRECTION:
        alpha, beta = _direction(rng)
        return HVector(COMPLEX, [complex(alpha, beta)]), (alpha, beta)
    e = _unit_vector(rng, field, d)
    return e, e


# --------------------------------------------------------------------------
# generators, one per (hypothesis shape, reference kind): each makes a chunk's functions,
# what their references hold and their parameters by field, the constants read from the
# chunk's node tables, which it keeps for the judge

def _gen_dominance(chunk):
    es, amps, _, slacks = chunk.draw(lambda rng: (
        _unit_vector(rng, chunk.field, chunk.d), rng.uniform(0.5, 2.0), chunk.path(rng),
        rng.uniform(0.0, 0.5)))
    path, = chunk.paths()
    fs = chunk.functions(lambda out: np.multiply(np.array(amps)[:, None, None],
                                                 path.transpose(0, 2, 1), out=out))
    gap = chunk.norms - chunk.projections(chunk.references(es))
    return fs, es, chunk.profiles(k=np.maximum(gap, 0.0) + np.array(slacks)[:, None])


def _gen_ball(chunk, kind=REF_UNIT):
    es, refs, rhos, scales, _ = chunk.draw(lambda rng: (
        *_reference_e(rng, chunk.field, chunk.d, kind), *_ball_draws(chunk, rng)))
    centers = chunk.references(es)
    fs = _scaled_paths(chunk, centers, scales)
    chunk.distances(centers[:, None])
    return fs, refs, {"rho": rhos}


def _gen_ball_profile(chunk):
    es, amps, _, lifts = chunk.draw(lambda rng: (
        _unit_vector(rng, chunk.field, chunk.d), rng.uniform(0.1, 1.4), chunk.path(rng),
        rng.uniform(0.01, 0.3)))
    centers = chunk.references(es)
    fs = _scaled_paths(chunk, centers, amps)
    distances = chunk.distances(centers[:, None])[:, 0]
    return fs, es, chunk.profiles(r=distances + np.array(lifts)[:, None])


def _band_draws(rng) -> tuple:
    """m <= M and the scale (M-m)/2 eta of a path w: (M+m)/2 e + (M-m)/2 eta w is a band."""
    m = rng.uniform(0.05, 1.5)
    M = m + rng.uniform(0.01, 3.0)
    return m, M, 0.5 * (M - m) * rng.uniform(0.2, 0.98)


def _gen_band(chunk, kind=REF_UNIT):
    es, refs, ms, Ms, scales, _ = chunk.draw(lambda rng: (
        *_reference_e(rng, chunk.field, chunk.d, kind), *_band_draws(rng), chunk.path(rng)))
    centers, units = 0.5 * (np.array(Ms) + np.array(ms)), chunk.references(es)
    fs = _scaled_paths(chunk, centers[:, None] * units, scales)
    chunk.projections(units)
    return fs, refs, {"m": ms, "M": Ms}


def _gen_band_profiles(chunk):
    es, _, _, etas, _ = chunk.draw(lambda rng: (
        _unit_vector(rng, chunk.field, chunk.d), chunk.path(rng, 1, REAL),
        chunk.path(rng, 1, REAL), rng.uniform(0.2, 0.98), chunk.path(rng)))
    c_path, xi_path, w = chunk.paths()
    c0 = _smooth(c_path, 0.6, 1.6)
    R = c0 * _smooth(xi_path, 0.1, 0.9)
    w = _bounded(w).transpose(0, 2, 1)
    fs = chunk.functions(lambda out: np.add(
        np.multiply(chunk.references(es)[:, :, None], c0[:, None], out=out),
        (R * np.array(etas)[:, None])[:, None] * w, out=out))
    return fs, es, chunk.profiles(m_profile=c0 - R, M_profile=c0 + R)


def _gen_scaled_dominance(chunk):
    es, _, scales, _, lifts = chunk.draw(lambda rng: (
        _unit_vector(rng, chunk.field, chunk.d), *_ball_draws(chunk, rng, rho_max=0.9),
        rng.uniform(0.0, 0.5)))
    units = chunk.references(es)
    fs = _scaled_paths(chunk, units, scales)
    Ks = (chunk.norms / chunk.projections(units)).max(axis=1) * (1.0 + np.array(lifts))
    return fs, es, {"K": [max(K, 1.0) for K in Ks.tolist()]}


def _gen_arg_cone(chunk):
    thetas, _, _, shares, directions = chunk.draw(lambda rng: (
        rng.uniform(0.15, math.pi / 2.0 - 0.05), chunk.path(rng, 1, REAL),
        chunk.path(rng, 1, REAL), rng.uniform(0.2, 0.95), _direction(rng)))
    r_path, phi_path = chunk.paths()
    r, raw = _smooth(r_path, 0.2, 2.0), phi_path[..., 0]
    phi = (np.array(thetas) * np.array(shares))[:, None] * raw / _peaks(raw)
    fs = chunk.functions(lambda out: np.multiply(r, np.exp(1j * phi), out=out[:, 0]))
    return fs, directions, {"theta": thetas}


def _gen_family_dominance(chunk):
    families, fs, lifts = _symmetric_trials(chunk, (0.0, 0.5), (0.5, 1.5),
                                            lambda rng: rng.uniform(0.0, 0.4))
    gap = chunk.norms[:, None] - chunk.projections(chunk.references(families))
    return fs, families, chunk.profiles(dominance_profiles=np.maximum(gap, 0.0)
                                        + lifts[:, :, None])


def _gen_family_ball(chunk):
    n = chunk.n_family
    room = 1.0 - math.sqrt(1.0 - 1.0 / n)
    families, gammas, _, eps, _, lifts = chunk.draw(lambda rng: (
        _orthofamily(rng, chunk.field, chunk.d, n), rng.uniform(0.0, 0.25 * room),
        chunk.path(rng, 1, REAL), rng.uniform(0.0, 0.25 * room), chunk.path(rng),
        [rng.uniform(0.05, 0.9) for _ in range(n)]))
    gamma_path, w = chunk.paths()
    c = 1.0 / math.sqrt(n) + np.array(gammas)[:, None] * _smooth(gamma_path, -1.0, 1.0)
    fs = _symmetric(chunk, families, c, eps, w)
    tops = chunk.distances(chunk.references(families)).max(axis=2)
    return fs, families, {"rhos": list(map(tuple, tops + np.array(lifts) * (1.0 - tops)))}


def _band_amp(chunk: _Chunk) -> tuple:
    return 0.02, 0.4 * 0.8 / math.sqrt(chunk.n_family)


def _gen_family_band(chunk):
    families, fs, u = _symmetric_trials(chunk, _band_amp(chunk), (0.8, 1.5), lambda rng: (
        rng.uniform(0.05, 0.5), rng.uniform(0.1, 0.9)))
    q, p = chunk.norms[:, None] ** 2, chunk.projections(chunk.references(families))
    Ms = (1.0 + u[..., 0]) * (q / p).max(axis=2)
    caps = ((Ms[..., None] * p - q) / (Ms[..., None] - p)).min(axis=2)
    return fs, families, {"ms": list(map(tuple, u[..., 1] * caps)), "Ms": list(map(tuple, Ms))}


def _gen_family_ball_profiles(chunk):
    families, fs, lifts = _symmetric_trials(chunk, (0.0, 0.5), (0.5, 1.5),
                                            lambda rng: rng.uniform(0.01, 0.5))
    distances = chunk.distances(chunk.references(families))
    return fs, families, chunk.profiles(r_profiles=distances + lifts[:, :, None])


def _gen_family_band_profiles(chunk):
    families, fs, u = _symmetric_trials(chunk, _band_amp(chunk), (0.8, 1.5), lambda rng: (
        rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.9)))
    q, p = chunk.norms[:, None] ** 2, chunk.projections(chunk.references(families))
    c0 = (1.0 + u[..., 0, None]) * q / (2.0 * p)
    dist = np.sqrt(np.maximum(q - 2.0 * c0 * p + c0 * c0, 0.0))
    R = dist + u[..., 1, None] * (c0 - dist)
    return fs, families, chunk.profiles(m_profiles=c0 - R, M_profiles=c0 + R)


def _gen_complex_box(chunk):
    directions, _, _, kappas = chunk.draw(lambda rng: (
        _direction(rng), chunk.path(rng, 1, REAL), chunk.path(rng, 1, REAL),
        rng.uniform(0.02, 0.4)))
    re_path, im_path = chunk.paths()
    base_re, base_im = _smooth(re_path, 0.3, 2.0), _smooth(im_path, 0.3, 2.0)
    alpha, beta = np.array(directions).T[:, :, None]
    fs = chunk.functions(lambda out: np.add(alpha * base_re, 1j * beta * base_im, out=out[:, 0]))
    refs = chunk.tables["coords"] = np.array([[complex(a, b)] for a, b in directions])
    chunk.projections(refs)
    kappa = np.array(kappas)[:, None]
    return fs, directions, chunk.profiles(
        m_profile=np.minimum(base_re, base_im) * (1.0 - kappa),
        M_profile=np.maximum(base_re, base_im) * (1.0 + kappa))


#: The generator of every (hypothesis shape, reference kind) a ``BOUNDS`` row has.
GENERATORS = {
    (B._DOMINANCE, REF_UNIT): _gen_dominance,
    (B._BALL, REF_UNIT): _gen_ball,
    (B._BAND_INNER, REF_UNIT): _gen_band,
    (B._BALL_PROFILE, REF_UNIT): _gen_ball_profile,
    (B._BAND_NORM, REF_UNIT): _gen_band_profiles,
    (B._SCALED_DOMINANCE, REF_UNIT): _gen_scaled_dominance,
    (B._ARG_CONE, REF_DIRECTION): _gen_arg_cone,
    (B._DOMINANCE, REF_FAMILY): _gen_family_dominance,
    (B._BALL, REF_FAMILY): _gen_family_ball,
    (B._BAND_INNER, REF_FAMILY): _gen_family_band,
    (B._BALL_PROFILE, REF_FAMILY): _gen_family_ball_profiles,
    (B._BAND_NORM, REF_FAMILY): _gen_family_band_profiles,
    (B._BALL, REF_DIRECTION): partial(_gen_ball, kind=REF_DIRECTION),
    (B._BAND_INNER, REF_DIRECTION): partial(_gen_band, kind=REF_DIRECTION),
    (B._BOX, REF_DIRECTION): _gen_complex_box,
}


#: A generator's reference of each kind, from what it holds: e, a family, (alpha, beta).
_REFERENCES = {REF_UNIT: lambda e: Reference(REF_UNIT, e=e),
               REF_FAMILY: lambda family: Reference(REF_FAMILY, family=family),
               REF_DIRECTION: lambda ab: Reference(REF_DIRECTION, alpha=ab[0], beta=ab[1])}


def generate_scenario(bound_id: str, seed: int, trial: int, d: int = 4,
                      field: str = REAL, n_family: int = 3,
                      n_panels: int = 512) -> Scenario:
    """Deterministic hypothesis-satisfying scenario for (seed, trial) on [0, 1]: a chunk of
    one trial (see :func:`fuzz`)."""
    setup = _setup(bound_id, d, field, n_family, n_panels)
    return _generate(seed, range(trial, trial + 1), *setup)[0][0]


def _setup(bound_id: str, d: int, field: str, n_family: int, n_panels: int) -> tuple:
    """The checked (bound id, grid, field, d, n_family) of a bound's trials."""
    spec = B.BOUNDS.get(bound_id)
    if spec is None:
        raise InputError(f"unknown bound id {quoted(bound_id)}")
    if spec.reference == REF_DIRECTION:
        field, d = COMPLEX, 1
    if d < 1:
        raise InputError(f"dimension d must be at least 1, got {d}")
    if spec.reference == REF_FAMILY:
        if n_family < 1:
            raise InputError(f"n_family must be at least 1, got {n_family}")
        if n_family > d:
            raise InputError(f"family of {n_family} needs d >= {n_family}")
    grid = Grid(0.0, 1.0, n_panels)
    if not _describable(grid.n_nodes, d):
        raise InputError("dimension d is too large for numpy to describe an (N+1, d) array")
    return bound_id, grid, field, d, n_family


def _generate(seed: int, trials: range, bound_id: str, grid: Grid, field: str, d: int,
              n_family: int) -> tuple[list[Scenario], dict | None, Exception | None]:
    """The scenarios of ``trials`` as one chunk, each drawn from the stream of
    ``trial_rng(seed, trial)``, its :meth:`_Chunk.given` stacks for the judge and the error
    that ended the chunk early or None."""
    spec = B.BOUNDS[bound_id]
    chunk = _Chunk(seed, trials, grid, field, d, n_family)
    fs, refs, params = GENERATORS[spec.shape, spec.reference](chunk)
    scenarios = []
    for trial, f, ref, *values in zip(chunk.trials, fs, refs, *params.values()):
        provenance = {"generator": f"fuzz:{bound_id}", "seed": int(seed), "trial": int(trial),
                      "d": int(d), "field": field,
                      "n_family": int(n_family) if spec.reference == REF_FAMILY else None}
        scenario = Scenario(
            id=f"fuzz-{bound_id}-s{seed}-t{trial}", field=field, d=d, grid=grid,
            function=FunctionSpec.samples(f.values), reference=_REFERENCES[spec.reference](ref),
            bounds=(BoundEntry(bound_id, BoundParams(**dict(zip(params, values)))),),
            tolerances=Tolerances(), provenance=provenance)
        vars(scenario)["f"] = f  # fills the cache of Scenario.f: run() reuses the generated f
        scenarios.append(scenario)
    return scenarios, chunk.given(fs, params), chunk.failure


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
    least one trial), each chunk generated, integrated and judged in one pass (see
    :class:`_Chunk` and :func:`_judge`).  If a trial's draws raise, the trials before it
    are judged first, so the error of an earlier trial wins."""
    if trials < 1:
        raise InputError("need at least one trial")
    summary = FuzzSummary(bound_id, trials, seed,
                          reports=[] if keep_reports else None)
    setup = _setup(bound_id, d, field, n_family, n_panels)
    size = max(1, CHUNK_ENTRIES // (setup[1].n_nodes * setup[3]))
    for lo in range(0, trials, size):
        scenarios, stacks, failure = _generate(seed, range(lo, min(lo + size, trials)), *setup)
        _judge(summary, list(zip(range(lo, trials), scenarios)), stacks)
        if failure is not None:
            raise failure
    return summary


def _judge(summary: FuzzSummary, chunk: list[tuple[int, Scenario]], stacks: dict | None) -> None:
    """Integrate the chunk's trials in one pass and judge them in one pass, both under run()'s
    floating-point guard and reading the ``stacks`` the chunk built, then tally each.
    Without stacks, or if either pass raises an error a trial can raise, the trials are
    judged one at a time by ``run()``, so that the earliest trial's own error raises."""
    scenarios, reports = [scenario for _, scenario in chunk], None
    if stacks is not None:
        tol = scenarios[0].tolerances
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                integrate_trials([s.f for s in scenarios], stacks["values"], stacks["norms"])
                results = B.evaluate_trials(
                    [(s.f, s.reference, s.bounds[0].params) for s in scenarios],
                    summary.bound_id, tau_hyp=tol.tau_hyp, tau_on=tol.tau_on, stacks=stacks)
            reports = [RunReport(s.id, (r,), defect(s.f), _rollup([r.verdict]), s.provenance)
                       for s, r in zip(scenarios, results)]
        except (RevtriError, FloatingPointError):
            pass
    for (trial, scenario), report in zip(chunk, reports or [run(s) for s in scenarios]):
        _tally(summary, trial, scenario, report)


def _tally(summary: FuzzSummary, trial: int, scenario: Scenario, report: RunReport) -> None:
    """Count one judged trial into ``summary``."""
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
