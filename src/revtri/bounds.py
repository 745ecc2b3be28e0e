"""Hypothesis checkers, evaluators and the registry of every certified inequality.

Each bound couples a node-wise hypothesis with an integral inequality.
Evaluation always runs the matching hypothesis checker first; a failed
hypothesis short-circuits judgment (the bound is then neither confirmed
nor refuted).  Margins are judged against a first-order error budget
propagated from the quadrature error estimates plus a roundoff floor.

Bound identifiers (part of the scenario file contract):

  additive, unit reference   THM_2_1 COR_2_2 COR_2_3 COR_2_4 COR_2_5
  multiplicative             MULT_A MULT_B MULT_C KARAMATA
  additive, orthonormal family  THM_3_1 COR_3_2 COR_3_3 COR_3_4 COR_3_5
  complex-plane (d=1)        PROP_4_1 PROP_4_2 PROP_4_3

:data:`BOUNDS` declares each bound once (reference kind, parameters, hypothesis shape,
right-hand-side form); parsing, serialization, validation, evaluation, recipes and
sweeps read it.  Each of the eight hypothesis shapes is declared once too: its residual
kernel and what it gives a right-hand side (an integrand and scale, a coefficient or a
factor).  :func:`evaluate_trials` judges the rows of T trials, a family bound's one per
member, in stacked groups, and :func:`evaluate` is its one-trial case; the public
``check_*`` functions judge one trial's hypothesis through the same private checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegeneracyError, InputError, ParamError, quoted
from .gridfn import (
    GROUP_ENTRIES,
    NUMBER,
    PROFILE,
    GridFunction,
    ScalarProfile,
    require_unit,
    row_norms,
)
from .hilbert import COMPLEX, DEFAULT_ORTHO_TOL, HVector, OrthonormalFamily, inner, vector_norm
from .quadrature import DEFAULT_RULE, ROUNDOFF, DefectEstimate, _integrate, defect

THM_2_1 = "THM_2_1"
COR_2_2 = "COR_2_2"
COR_2_3 = "COR_2_3"
COR_2_4 = "COR_2_4"
COR_2_5 = "COR_2_5"
MULT_A = "MULT_A"
MULT_B = "MULT_B"
MULT_C = "MULT_C"
KARAMATA = "KARAMATA"
THM_3_1 = "THM_3_1"
COR_3_2 = "COR_3_2"
COR_3_3 = "COR_3_3"
COR_3_4 = "COR_3_4"
COR_3_5 = "COR_3_5"
PROP_4_1 = "PROP_4_1"
PROP_4_2 = "PROP_4_2"
PROP_4_3 = "PROP_4_3"

UNIT_BOUNDS = (THM_2_1, COR_2_2, COR_2_3, COR_2_4, COR_2_5, MULT_A, MULT_B, MULT_C, KARAMATA)
FAMILY_BOUNDS = (THM_3_1, COR_3_2, COR_3_3, COR_3_4, COR_3_5)
COMPLEX_BOUNDS = (PROP_4_1, PROP_4_2, PROP_4_3)
ALL_BOUND_IDS = UNIT_BOUNDS + FAMILY_BOUNDS + COMPLEX_BOUNDS

HOLDS = "holds"
VIOLATED = "violated"
HYPOTHESIS_FAILED = "hypothesis_failed"

#: Reference kinds, named by their scenario-file key.
REF_UNIT = "e"
REF_FAMILY = "family"
REF_DIRECTION = "alpha_beta"

#: Parameter kinds (``NUMBER`` and ``PROFILE`` come from :mod:`revtri.gridfn`);
#: the list kinds hold one entry per family member.
NUMBERS = "numbers"
PROFILES = "profiles"
LIST_KINDS = (NUMBERS, PROFILES)

#: Default absolute tolerance on hypothesis residuals.  Generators satisfy
#: hypotheses exactly up to rounding; a tight tolerance catches construction bugs.
DEFAULT_HYP_TOL = 1e-9

#: The absolute error of a rounded product in gradual underflow, twice |eta| in
#: fl(x y) = x y (1 + delta) + eta, |eta| <= 2^-1075; a sum of subnormals is exact (Higham,
#: *Accuracy and Stability of Numerical Algorithms*, section 2.1).
_UNDERFLOW = 2.0 ** -1074

#: Upper guard for ball radii: the coefficient blows up as rho -> 1,
#: so near-degenerate radii are rejected instead of overflowing.
RHO_GUARD = 1.0 - 1e-9


# --------------------------------------------------------------------------
# range rules (each raises InputError); parsing, evaluation, the checkers and
# the extremal recipes all call these

def require_radius(rho: float) -> None:
    """A ball radius relative to the unit reference: rho in (0, RHO_GUARD)."""
    if not 0.0 < rho < 1.0 or rho >= RHO_GUARD:
        raise InputError(f"radius must lie in (0, 1) and below {RHO_GUARD!r}, got {rho!r}")


def require_band(m: float, M: float) -> None:
    if not 0.0 < m <= M:
        raise InputError(f"band constants require 0 < m <= M, got m={m!r}, M={M!r}")


def require_band_profiles(m_values: np.ndarray, M_values: np.ndarray) -> None:
    if np.any(M_values < m_values):
        j = int(np.argmin(M_values - m_values))
        raise InputError(f"band requires M(t) >= m(t) at every node; violated at node {j}")


def require_K(K: float) -> None:
    if not K >= 1.0:
        raise InputError(f"scaling constant must satisfy K >= 1, got {K!r}")


def require_theta(theta: float) -> None:
    if not 0.0 < theta < math.pi / 2.0:
        raise InputError(f"theta must lie in (0, pi/2), got {theta!r}")


def require_direction(alpha: float, beta: float) -> None:
    """The direction e = alpha + i beta needs alpha, beta > 0 and |e| = 1 within 1e-12."""
    if not (alpha > 0.0 and beta > 0.0):
        raise InputError(f"direction components must be positive, got ({alpha!r}, {beta!r})")
    gap = abs(alpha * alpha + beta * beta - 1.0)
    if not gap <= 1e-12:
        raise InputError(f"direction must satisfy alpha^2 + beta^2 = 1 (off by {gap:.3e})")


def ball_coefficient(rho: float) -> float:
    """rho^2 / (sqrt(1-rho^2) * (1 + sqrt(1-rho^2))) for rho in (0, 1)."""
    require_radius(rho)
    root = math.sqrt(1.0 - rho * rho)
    return rho * rho / (root * (1.0 + root))


def band_coefficient(m: float, M: float) -> float:
    """(sqrt(M) - sqrt(m))^2 / (2 sqrt(mM)) for 0 < m <= M; an :class:`InputError` when
    the product mM underflows to 0 and the coefficient is not defined in floats."""
    require_band(m, M)
    denominator = 2.0 * math.sqrt(m * M)
    if denominator == 0.0:
        raise InputError(f"band coefficient at m={m!r}, M={M!r} is undefined: "
                         f"m*M underflows to 0")
    return (math.sqrt(M) - math.sqrt(m)) ** 2 / denominator


def band_gap_integrand(m_values: np.ndarray, M_values: np.ndarray) -> np.ndarray:
    """(M - m)^2 / (M + m) node-wise, defined as 0 where M = m = 0."""
    m_values = np.asarray(m_values, dtype=np.float64)
    M_values = np.asarray(M_values, dtype=np.float64)
    require_band_profiles(m_values, M_values)
    total = M_values + m_values
    return np.divide((M_values - m_values) ** 2, total, out=np.zeros_like(total),
                     where=total > 0.0)


# --------------------------------------------------------------------------
# hypothesis checkers

@dataclass(frozen=True)
class HypothesisReport:
    """Node-wise constraint check.

    The signed residual at a node is positive where the hypothesis is violated;
    ``worst_violation`` is their clamped maximum (0 when satisfied) at ``worst_node``.
    Family checks aggregate per-index reports in ``sub_reports``.  The residuals are not
    kept: ``kernel`` computes them from f and the profiles, and :attr:`slack_profile`
    calls it on every access, at the cost of one kernel evaluation (one per member for a
    family), returning a fresh array of the same bytes.  Only ``evaluate`` and ``check_*``
    attach kernels: a report of ``run()`` or ``fuzz()`` holds numbers only.
    """

    condition_id: str
    holds: bool
    worst_violation: float
    worst_node: int
    kernel: Callable[[], np.ndarray] | None
    tol: float
    sub_reports: tuple["HypothesisReport", ...] | None = None

    @property
    def slack_profile(self) -> np.ndarray:
        if self.kernel is None:
            raise InputError(f"the {self.condition_id} report keeps no residuals: evaluate "
                             "the bound on the scenario's function for its slack profile")
        return self.kernel()

    @property
    def failing_indices(self) -> tuple[int, ...]:
        if not self.sub_reports:
            return ()
        return tuple(i for i, r in enumerate(self.sub_reports) if not r.holds)


def _profile_on(f: GridFunction, p: ScalarProfile | float, name: str) -> np.ndarray:
    """A profile's node values, or a number as a 0-d array: numpy arithmetic on it
    gives the node values of the constant profile and raises the same errors.  A
    number, like a constant profile, must not be negative."""
    if isinstance(p, ScalarProfile):
        if p.grid != f.grid:
            raise InputError(f"{name} profile lives on a different grid")
        return p.values
    if isinstance(p, bool) or not isinstance(p, (int, float, np.integer, np.floating)):
        raise InputError(f"{name} must be a profile or a number, got {quoted(p)}")
    if p < 0.0:
        raise InputError(f"{name} is negative: {p!r}")
    return np.asarray(p, dtype=np.float64)


# --------------------------------------------------------------------------
# residual kernels: kernel(rows, *values) gives the residuals of a group of hypothesis rows
# as a (Tg, ng, N+1) array, for the parameters' values on the group (see :func:`_take`).
# The shapes below declare the rest.

#: How :class:`_Stacks` reads a table it was not handed, from each trial's function f and
#: reference coordinates r: as the trial's rows, one per member of a family.
_OWN_TABLES = {
    "values": lambda f, r: [f.values.T],
    "norms": lambda f, r: [f.norms()],
    "coords": lambda f, r: list(np.atleast_2d(r)),
    "projections": lambda f, r: list(np.atleast_2d(f.projections(r).T)),   # a family's (N+1, n)
    "distances": lambda f, r: [f.distances(e) for e in np.atleast_2d(r)],
}


class _Stacks:
    """The node tables and parameter values ``params`` of T trials of one bound, by trial,
    then by member of a family: a fuzz chunk's stacks, or one trial's own rows, listed by
    member, each table read from f (see :data:`_OWN_TABLES`) when a kernel first asks."""

    def __init__(self, fs, refs, params, **stacks):
        self.fs, self.refs, self.params = fs, refs, params
        vars(self).update(stacks)

    def __getattr__(self, name: str):   # only called for a table not read yet
        if name not in _OWN_TABLES:
            raise AttributeError(name)
        table = vars(self)[name] = [_OWN_TABLES[name](f, r) for f, r in zip(self.fs, self.refs)]
        return table


def _take(table, trials: slice, members: slice) -> np.ndarray:
    """The rows of ``members`` of ``trials`` in a table of :class:`_Stacks`, a view (Tg, ng,
    ...) of a stack or of one trial's listed row (a number as a 0-d array)."""
    if isinstance(table, np.ndarray):
        return table[trials, members]
    row, = table[0][members]
    return row[None, None] if row.ndim else row


class _Rows(NamedTuple):
    """The hypothesis rows ``members`` of ``trials`` of ``stacks``, read as (Tg, ng or 1, ...)."""

    stacks: _Stacks
    trials: slice
    members: slice

    def coords(self) -> np.ndarray:   # (Tg, ng, d)
        return _take(self.stacks.coords, self.trials, self.members)

    def norms(self) -> np.ndarray:
        return _take(self.stacks.norms, self.trials, slice(None))

    def projections(self) -> np.ndarray:
        return _take(self.stacks.projections, self.trials, self.members)

    def distances(self) -> np.ndarray:
        return _take(self.stacks.distances, self.trials, self.members)

    def values(self) -> np.ndarray:   # (Tg, 1, N+1, d), each row's columns contiguous
        return _take(self.stacks.values, self.trials, slice(None)).swapaxes(-1, -2)

    def samples(self) -> np.ndarray:   # of d=1 complex functions
        _complex_samples(self.stacks.fs[0])
        return _take(self.stacks.values, self.trials, slice(None))[:, :, 0]


def _ball_residuals(rows: _Rows, radius) -> np.ndarray:
    """||f(t) - e|| - radius(t)."""
    return rows.distances() - radius


def _band_norm_residuals(rows: _Rows, m: np.ndarray, M: np.ndarray) -> np.ndarray:
    """||f(t) - (M+m)/2 e|| - (M-m)/2, the distances summed one column at a time."""
    x, center = rows.values(), 0.5 * (M + m)
    shape = np.broadcast_shapes(x.shape[:-1], np.shape(center))
    return row_norms(np.broadcast_to(x, shape + x.shape[-1:]), rows.coords()[..., None, :],
                     np.broadcast_to(center, shape)) - 0.5 * (M - m)


def _box_residuals(rows: _Rows, m, M) -> np.ndarray:
    """How far f(t) lies outside the box [m, M] alpha x i [m, M] beta, e = alpha + i beta."""
    z, e = rows.samples(), rows.coords()
    x, y, alpha, beta = z.real, z.imag, e.real, e.imag
    return np.maximum(np.maximum(np.maximum(m * alpha - x, x - M * alpha), m * beta - y),
                      y - M * beta)


def _complex_samples(f: GridFunction) -> np.ndarray:
    if f.field != COMPLEX or f.d != 1:
        raise InputError("this check needs a d=1 complex grid function")
    return f.values[:, 0]


def _arg_residuals(rows: _Rows, theta) -> np.ndarray:
    """|arg f(t)| - theta for d=1 complex functions that vanish at no node."""
    z = rows.samples()
    if np.any(z == 0.0):
        j = int(np.argmax(z == 0.0)) % z.shape[-1]   # the first row's first zero
        raise DegeneracyError(f"argument undefined: f vanishes at node {j}")
    return np.abs(np.angle(z)) - theta


# --------------------------------------------------------------------------
# hypothesis checkers: the rows of every trial judged in stacked groups

def _groups(n_trials: int, n: int, n_nodes: int) -> list[tuple[slice, slice]]:
    """The rows of T trials of n members in groups (trials, members): of one trial one member
    at a time, so a member raises its own floating-point error and one member's node arrays
    are alive at once; of several, whole trials of at most :data:`GROUP_ENTRIES` entries."""
    if n_trials == 1:
        return [(slice(0, 1), slice(i, i + 1)) for i in range(n)]
    step = max(1, GROUP_ENTRIES // (n * n_nodes))
    return [(slice(lo, lo + step), slice(None)) for lo in range(0, n_trials, step)]


def _residuals(shape: "_Shape", stacks: _Stacks, trials: slice, members: slice) -> np.ndarray:
    """``shape``'s residuals on a group of rows, (Tg, ng, N+1)."""
    return shape.kernel(_Rows(stacks, trials, members),
                        *(_take(p, trials, members) for p in stacks.params))


def _slack(shape: "_Shape", stacks: _Stacks, t: int, members: range) -> np.ndarray:
    """A report's kernel: the node-wise maximum of trial t's members' residuals."""
    top = None
    for i in members:
        residuals = _residuals(shape, stacks, slice(t, t + 1), slice(i, i + 1))[0, 0]
        top = residuals if top is None else np.maximum(top, residuals, out=top)
    return top


def _report(condition_id: str, node: int, peak: float, tol: float, kernel,
            sub_reports=None) -> HypothesisReport:
    """The report of residuals whose largest value ``peak`` lies at ``node``."""
    worst = max(peak, 0.0)
    holds = worst <= tol and (sub_reports is None or all(r.holds for r in sub_reports))
    return HypothesisReport(condition_id, holds, worst, node, kernel, tol,
                            None if sub_reports is None else tuple(sub_reports))


def _hypotheses(shape: "_Shape", stacks: _Stacks, tau_hyp: float, family: bool = False,
                kernels: bool = False) -> list[HypothesisReport]:
    """``shape``'s report on each trial, its rows judged in the groups of :func:`_groups`; a
    worst node is the first of the largest residual (or NaN).  A unit row's report carries
    the shape it implies as its sub-report; a family judges each member and their maximum.
    Only with ``kernels`` does a report get one (see :func:`_slack`)."""
    n_trials, n, n_nodes = len(stacks.fs), len(stacks.params[0][0]), stacks.fs[0].grid.n_nodes
    nodes, peaks = np.empty((n_trials, n), np.intp), np.empty((n_trials, n))
    tops = np.full((n_trials, n_nodes), -np.inf) if family else None
    for trials, members in _groups(n_trials, n, n_nodes):
        residuals = _residuals(shape, stacks, trials, members)
        tg, ng = residuals.shape[:2]
        worst = nodes[trials, members] = residuals.argmax(axis=2)
        peaks[trials, members] = residuals[np.arange(tg)[:, None], np.arange(ng), worst]
        for i in range(ng if family else 0):   # member by member, in place
            np.maximum(tops[trials], residuals[:, i], out=tops[trials])
        del residuals   # freed before the next group's kernel runs
    implied = (_hypotheses(shape.implies, stacks, tau_hyp, kernels=kernels) if shape.implies
               else [None] * n_trials)
    cid = f"{shape.condition_id}_family" if family else shape.condition_id

    def kernel(t: int, members: range):
        return partial(_slack, shape, stacks, t, members) if kernels else None
    reports = []
    for t, (sub, t_nodes, t_peaks) in enumerate(zip(implied, nodes.tolist(), peaks.tolist())):
        subs = [_report(f"{cid}[{i}]" if family else cid, node, peak, tau_hyp,
                        kernel(t, range(i, i + 1)), None if sub is None else [sub])
                for i, (node, peak) in enumerate(zip(t_nodes, t_peaks))]
        if family:
            node = int(tops[t].argmax())
            subs = [_report(cid, node, float(tops[t][node]), tau_hyp, kernel(t, range(n)), subs)]
        reports.append(subs[0])
    return reports


def _unit_reference(shape: "_Shape", f: GridFunction, e: HVector | None, tau_on: float):
    """A unit or direction row's reference checks on one trial, then its coordinates."""
    if not shape.directed:
        return None
    if e.field != f.field or e.d != f.d:
        raise InputError("reference vector field/dimension mismatch")
    require_unit(e, "reference vector", tau_on)
    return e.coords


def _trial_stacks(f: GridFunction, ref, names, columns) -> _Stacks:
    """One trial's :class:`_Stacks`, for its reference coordinates ``ref``: each parameter's
    values by member in ``columns``, through :func:`_profile_on`; member i of a parameter
    named ``x_i`` in ``names`` is named ``x_<i>`` in errors."""
    return _Stacks([f], [ref], [[[_profile_on(f, p, name.replace("_i", f"_{i}"))
                                  for i, p in enumerate(column)]]
                                for name, column in zip(names, columns)])


def _check(shape: "_Shape", f: GridFunction, e: HVector | None, params, tau_hyp: float,
           tau_on: float = DEFAULT_ORTHO_TOL, require=lambda *values: None) -> HypothesisReport:
    """``shape`` on f against the unit reference e, if it reads one; ``require`` judges the
    node values of ``params``."""
    stacks = _trial_stacks(f, _unit_reference(shape, f, e, tau_on), shape.names,
                           [[p] for p in params])
    require(*(column[0][0] for column in stacks.params))
    return _hypotheses(shape, stacks, tau_hyp, kernels=True)[0]


def check_dominance(f: GridFunction, e: HVector, k: ScalarProfile,
                    tau_hyp: float = DEFAULT_HYP_TOL,
                    tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """||f(t)|| - Re<f(t), e> <= k(t) at every node."""
    return _check(_DOMINANCE, f, e, (k,), tau_hyp, tau_on)


def check_scaled_dominance(f: GridFunction, e: HVector, K: float,
                           tau_hyp: float = DEFAULT_HYP_TOL,
                           tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """||f(t)|| <= K * Re<f(t), e> at every node (multiplicative hypothesis)."""
    require_K(K)
    return _check(_SCALED_DOMINANCE, f, e, (K,), tau_hyp, tau_on)


def check_ball(f: GridFunction, e: HVector, radius: ScalarProfile | float,
               tau_hyp: float = DEFAULT_HYP_TOL,
               tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """||f(t) - e|| <= radius(t) at every node; a number is a constant radius."""
    return _check(_BALL, f, e, (radius,), tau_hyp, tau_on)


def check_band(f: GridFunction, e: HVector, m: ScalarProfile | float,
               M: ScalarProfile | float,
               form: str = "inner",
               tau_hyp: float = DEFAULT_HYP_TOL,
               tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """Band containment around e, in either of its two equivalent forms.

    ``inner``: residual_j = -Re<M(t)e - f(t), f(t) - m(t)e>;
    ``norm``:  residual_j = ||f(t) - (M+m)/2 e|| - (M-m)/2.
    A number for m or M is a constant profile.
    """
    if form not in ("inner", "norm"):
        raise InputError(f"band form must be 'inner' or 'norm', got {quoted(form)}")
    shape = _BAND_INNER if form == "inner" else _BAND_NORM
    return _check(shape, f, e, (m, M), tau_hyp, tau_on, require_band_profiles)


def check_box_complex(f: GridFunction, alpha: float, beta: float,
                      m: ScalarProfile, M: ScalarProfile,
                      tau_hyp: float = DEFAULT_HYP_TOL) -> HypothesisReport:
    """Rectangle condition m*alpha <= Re f <= M*alpha, m*beta <= Im f <= M*beta, a
    sufficient condition for the band containment around e = alpha + i beta, which is
    judged too and attached as the sub-report."""
    require_direction(alpha, beta)
    _complex_samples(f)
    return _check(_BOX, f, HVector(COMPLEX, [complex(alpha, beta)]), (m, M), tau_hyp,
                  require=require_band_profiles)


def check_arg(f: GridFunction, theta: float,
              tau_hyp: float = DEFAULT_HYP_TOL) -> HypothesisReport:
    """|arg f(t)| <= theta at every node, theta in (0, pi/2)."""
    require_theta(theta)
    return _check(_ARG_CONE, f, None, (theta,), tau_hyp)


# --------------------------------------------------------------------------
# hypothesis shapes

@dataclass(frozen=True, eq=False)
class _Shape:
    """A node-wise hypothesis as data, once for every bound that assumes it: its residual
    ``kernel``, reported as ``condition_id``, its parameters' ``names`` in errors, the
    shape it ``implies`` (see :func:`_hypotheses`), and what it gives a right-hand side: the
    ``integrand`` g and ``scale`` s of defect <= s int g (a family divides by 1/s), the
    ``coefficient`` c of defect <= c * projection or the ``factor`` of factor * int ||f||
    <= ||int f||, with the ``terms`` naming them in ``rhs_terms``.  ``directed`` is False
    for the hypothesis that reads no reference.  Shapes compare by identity: with a
    reference kind, one keys a fuzz generator and a recipe."""

    condition_id: str
    kernel: Callable
    names: tuple[str, ...]
    implies: "_Shape | None" = None
    integrand: Callable | None = None
    scale: float = 1.0
    coefficient: Callable | None = None
    factor: Callable | None = None
    terms: tuple[str, ...] = ()
    directed: bool = True


_DOMINANCE = _Shape("dominance", lambda rows, k: rows.norms() - rows.projections() - k, ("k",),
                    integrand=lambda k: k, terms=("dominance_integral",))
_SCALED_DOMINANCE = _Shape("dominance_scaled",
                           lambda rows, K: rows.norms() - K * rows.projections(), ("K",))
_BALL = _Shape("ball", _ball_residuals, ("radius",), coefficient=ball_coefficient,
               factor=lambda rho: math.sqrt(1.0 - rho * rho), terms=("factor", "integral_norm"))
_BALL_PROFILE = _Shape("ball", _ball_residuals, ("radius",), integrand=lambda r: r ** 2,
                       scale=0.5, terms=("r_squared_integral",))
# -Re<M(t)e - f(t), f(t) - m(t)e>
_BAND_INNER = _Shape("band_inner",
                     lambda rows, m, M: (np.square(rows.norms()) + m * M
                                         - (M + m) * rows.projections()),
                     ("m", "M"), coefficient=band_coefficient)
_BAND_NORM = _Shape("band_norm", _band_norm_residuals, ("m", "M"),
                    integrand=band_gap_integrand, scale=0.25, terms=("band_gap_integral",))
_ARG_CONE = _Shape("arg_cone", _arg_residuals, ("theta",), factor=math.cos,
                   terms=("cos_theta", "norm_integral"), directed=False)
_BOX = _Shape("box", _box_residuals, ("m", "M"), implies=_BAND_INNER,
              integrand=band_gap_integrand, scale=0.25, terms=("band_gap_integral",))


# --------------------------------------------------------------------------
# parameters and results

@dataclass(frozen=True)
class BoundParams:
    """Parameters for one bound; ``BOUNDS[bound_id].params`` names the fields it reads."""

    k: ScalarProfile | None = None
    rho: float | None = None
    m: float | None = None
    M: float | None = None
    r: ScalarProfile | None = None
    m_profile: ScalarProfile | None = None
    M_profile: ScalarProfile | None = None
    K: float | None = None
    theta: float | None = None
    rhos: tuple[float, ...] | None = None
    ms: tuple[float, ...] | None = None
    Ms: tuple[float, ...] | None = None
    r_profiles: tuple[ScalarProfile, ...] | None = None
    m_profiles: tuple[ScalarProfile, ...] | None = None
    M_profiles: tuple[ScalarProfile, ...] | None = None
    dominance_profiles: tuple[ScalarProfile, ...] | None = None


@dataclass(frozen=True)
class BoundResult:
    """One evaluated inequality: lhs <= rhs judged at margin = rhs - lhs."""

    bound_id: str
    lhs: float
    rhs: float
    rhs_terms: dict[str, float]
    margin: float
    hypothesis: HypothesisReport
    err_budget: float
    verdict: str
    diagnostics: dict[str, float] = dc_field(default_factory=dict)


# --------------------------------------------------------------------------
# evaluation: a row's hypothesis, then its right-hand-side form

@dataclass(frozen=True, eq=False)
class Reference:
    """What a bound measures f against: a unit vector ``e`` (kind REF_UNIT), an
    orthonormal ``family`` (REF_FAMILY) or the direction ``alpha + i beta``
    (REF_DIRECTION)."""

    kind: str
    e: HVector | None = None
    family: OrthonormalFamily | None = None
    alpha: float | None = None
    beta: float | None = None


class _Context(NamedTuple):
    """One trial's f, integrals and reference, its row's ``direction`` (see :func:`_direction`),
    hypothesis report and integrands' integrals ``parts``, (value, error) per member."""

    f: GridFunction
    est: DefectEstimate
    ref: Reference
    direction: tuple | None
    hyp: HypothesisReport
    parts: list


def _direction(f: GridFunction, ref: Reference, est: DefectEstimate, rule: str):
    """e = alpha + i beta, the split projection alpha int Re f + beta int Im f with its
    error, and the diagnostics comparing it with Re<int f, e>.  The integrals of Re f and
    Im f, with their parts of each jump of f, come from one pass, once per f and rule, over
    the (N+1, 2) float view of f's samples."""
    alpha, beta = ref.alpha, ref.beta
    require_direction(alpha, beta)
    z = _complex_samples(f)
    e = HVector(COMPLEX, [complex(alpha, beta)])

    def parts():
        jumps = {j: np.array([v[0].real, v[0].imag]) for j, v in (f.jumps or {}).items()}
        pairs = z.view(np.float64).reshape(-1, 2)   # no copy: f's columns are contiguous
        value, diff = _integrate(f.grid, pairs, jumps, rule)
        return value.tolist(), np.abs(diff).tolist()   # |v|: the norm of a one-entry v
    (re, im), (re_err, im_err) = f.cached(("part_integrals", rule), parts)
    split = alpha * re + beta * im
    proj = float(inner(est.integral, e).real)
    return e, split, alpha * re_err + beta * im_err, {"projection": proj,
                                                      "split_gap": split - proj}


def _integrand_integrals(shape: _Shape, stacks: _Stacks, rule: str) -> list:
    """Per trial, the integral (value, error) of the shape's integrand g of each member, the
    rows made and integrated in the groups of :func:`_groups` (a g of numbers broadcast)."""
    grid, n_trials, n = stacks.fs[0].grid, len(stacks.fs), len(stacks.params[0][0])
    pairs = []   # by trial, then member
    for trials, members in _groups(n_trials, n, grid.n_nodes):
        g = shape.integrand(*(_take(p, trials, members) for p in stacks.params))
        g = np.broadcast_to(g, (*g.shape[:-1], grid.n_nodes))
        full, diff = _integrate(grid, g.reshape(-1, grid.n_nodes).T, None, rule)
        pairs += zip(full.tolist(), np.abs(diff).tolist())
    return [pairs[t * n: (t + 1) * n] for t in range(n_trials)]


# right-hand-side forms: rhs(context, spec, parameter values, direction)
#   -> (lhs, rhs, err, rhs_terms, diagnostics, multiplier); the multiplier is the constant
#   that scales the integrals of the side it stands on (a scale, coefficient, factor or K)

def _integral(c: _Context, spec: "BoundSpec", args: list, direction):
    """defect <= s * int g for the shape's integrand g and scale s."""
    shape, ((g, g_err),) = spec.shape, c.parts
    err = shape.scale * g_err + c.est.norm_integral_err + c.est.integral_err
    return c.est.value, shape.scale * g, err, {shape.terms[0]: g}, {}, shape.scale


def _projection(c: _Context, spec: "BoundSpec", args: list, direction):
    """defect <= coeff * Re<int f, e> and its weak form coeff * ||int f||, or along a
    direction the split projection."""
    coeff = spec.shape.coefficient(*args)
    if direction is None:
        proj = float(inner(c.est.integral, c.ref.e).real)
        weak = coeff * c.est.integral_norm
        proj_err, terms = c.est.integral_err, {"projection": proj, "weak_rhs": weak}
        diags = {"weak_margin": weak - c.est.value}
    else:
        (_, proj, proj_err, _), terms, diags = direction, {}, {}
    err = coeff * proj_err + c.est.norm_integral_err + c.est.integral_err
    return c.est.value, coeff * proj, err, {"coefficient": coeff, **terms}, diags, coeff


def _ratio(c: _Context, spec: "BoundSpec", args: list, direction):
    """factor * int ||f|| <= ||int f|| for the shape's factor."""
    factor = spec.shape.factor(*args)
    name, reported = spec.shape.terms
    err = c.est.integral_err + factor * c.est.norm_integral_err
    return (factor * c.est.norm_integral, c.est.integral_norm, err,
            {name: factor, reported: getattr(c.est, reported)}, {}, factor)


def _mult_a(c: _Context, spec: "BoundSpec", args: list, direction):
    (K,), est = args, c.est
    return (est.norm_integral, K * est.integral_norm,
            K * est.integral_err + est.norm_integral_err,
            {"K": K, "integral_norm": est.integral_norm}, {}, K)


def _mult_c(c: _Context, spec: "BoundSpec", args: list, direction):
    # The certified bound is the corrected additive form
    #   defect <= (sqrt(M)-sqrt(m))^2/(M+m) * int ||f|| dt,
    # the only additive form derivable from the multiplicative one; the
    # printed variant with ||int f|| on the right is reported as a
    # diagnostic, never asserted.  Constants without a band coefficient
    # (m*M underflows) are rejected, as for the other constant bands.
    (m, M), est = args, c.est
    band_coefficient(m, M)
    coeff = (math.sqrt(M) - math.sqrt(m)) ** 2 / (M + m)
    mult_factor = 2.0 * math.sqrt(m * M) / (M + m)
    printed_rhs = coeff * est.integral_norm
    return (est.value, coeff * est.norm_integral, (1.0 + coeff) * est.norm_integral_err
            + est.integral_err, {"coefficient": coeff, "norm_integral": est.norm_integral},
            {"mult_factor": mult_factor, "mult_lhs": mult_factor * est.norm_integral,
             "mult_rhs": est.integral_norm,
             "mult_margin": est.integral_norm - mult_factor * est.norm_integral,
             "printed_rhs": printed_rhs, "printed_margin": printed_rhs - est.value}, coeff)


# family bounds: int ||f|| <= ||int f|| / sqrt(n) + extra

def _family_bound(c: _Context, extra: float, extra_err: float, terms: dict,
                  diags: dict | None = None, mult: float = 1.0):
    n = c.ref.family.n
    family_term = c.est.integral_norm / math.sqrt(n)
    err = c.est.integral_err / math.sqrt(n) + extra_err + c.est.norm_integral_err
    return (c.est.norm_integral, family_term + extra, err,
            {"family_term": family_term, **terms, "extra": extra}, diags or {}, mult)


def _integral_extra(c: _Context, spec: "BoundSpec", args: list, direction):
    """extra = sum_i int g_i / ((1/s) n)."""
    shape = spec.shape
    scale = (1.0 / shape.scale) * c.ref.family.n
    extra = sum(value for value, _ in c.parts) / scale
    extra_err = sum(err for _, err in c.parts) / scale
    terms = {f"{shape.terms[0]}_{i}": value for i, (value, _) in enumerate(c.parts)}
    return _family_bound(c, extra, extra_err, terms)


def _projection_extra(c: _Context, spec: "BoundSpec", args: list, direction, printed=False):
    """extra = Re<int f, (1/n) sum_i c_i e_i>; weak form with the rms coefficient, and as
    printed if ``printed``."""
    coeffs = np.array([spec.shape.coefficient(*member) for member in zip(*args)])
    n = c.ref.family.n
    combined = (coeffs[:, None] * c.ref.family.matrix()).sum(axis=0) / n
    extra = float(np.dot(c.est.integral.coords, np.conjugate(combined)).real)
    extra_err = vector_norm(combined) * c.est.integral_err
    weak = c.est.integral_norm / math.sqrt(n) * (1.0 + math.sqrt(float(np.mean(coeffs**2))))
    terms = {"projection_extra": extra, "weak_rhs": weak}
    terms.update((f"coefficient_{i}", float(v)) for i, v in enumerate(coeffs))
    diags = {"weak_margin": weak - c.est.norm_integral}
    if printed:
        diags["printed_weak_rhs"] = (c.est.integral_norm / math.sqrt(n)
                                     * (1.0 + math.sqrt(float(np.mean(coeffs)))))
    return _family_bound(c, extra, extra_err, terms, diags, float(coeffs.max()))


# --------------------------------------------------------------------------
# the registry

@dataclass(frozen=True)
class Param:
    """A scenario-file ``key``, its :class:`BoundParams` ``field`` and ``kind``, and a
    range ``rule`` on its values (node values for profiles, entry by entry for
    lists); with ``upper`` set the rule is ``rule(value, upper field's value)``."""

    key: str
    field: str
    kind: str
    rule: Callable | None = None
    upper: str | None = None


@dataclass(frozen=True)
class BoundSpec:
    """A bound's reference kind, parameters, hypothesis shape and right-hand-side form."""

    reference: str
    params: tuple[Param, ...]
    shape: _Shape
    rhs: Callable


_RHO = (Param("rho", "rho", NUMBER, require_radius),)
_BAND = (Param("m", "m", NUMBER, require_band, upper="M"), Param("M", "M", NUMBER))

BOUNDS: dict[str, BoundSpec] = {
    THM_2_1: BoundSpec(REF_UNIT, (Param("k", "k", PROFILE),), _DOMINANCE, _integral),
    COR_2_2: BoundSpec(REF_UNIT, _RHO, _BALL, _projection),
    COR_2_3: BoundSpec(REF_UNIT, _BAND, _BAND_INNER, _projection),
    COR_2_4: BoundSpec(REF_UNIT, (Param("r", "r", PROFILE),), _BALL_PROFILE, _integral),
    COR_2_5: BoundSpec(REF_UNIT, (
        Param("m", "m_profile", PROFILE, require_band_profiles, upper="M_profile"),
        Param("M", "M_profile", PROFILE)), _BAND_NORM, _integral),
    MULT_A: BoundSpec(REF_UNIT, (Param("K", "K", NUMBER, require_K),), _SCALED_DOMINANCE,
                      _mult_a),
    MULT_B: BoundSpec(REF_UNIT, _RHO, _BALL, _ratio),
    MULT_C: BoundSpec(REF_UNIT, _BAND, _BAND_INNER, _mult_c),
    KARAMATA: BoundSpec(REF_DIRECTION, (Param("theta", "theta", NUMBER, require_theta),),
                        _ARG_CONE, _ratio),
    THM_3_1: BoundSpec(REF_FAMILY, (Param("M_i", "dominance_profiles", PROFILES),),
                       _DOMINANCE, _integral_extra),
    COR_3_2: BoundSpec(REF_FAMILY, (Param("rho_i", "rhos", NUMBERS, require_radius),), _BALL,
                       partial(_projection_extra, printed=True)),
    COR_3_3: BoundSpec(REF_FAMILY, (Param("m_i", "ms", NUMBERS, require_band, upper="Ms"),
                                    Param("M_i", "Ms", NUMBERS)), _BAND_INNER, _projection_extra),
    COR_3_4: BoundSpec(REF_FAMILY, (Param("r_i", "r_profiles", PROFILES),), _BALL_PROFILE,
                       _integral_extra),
    COR_3_5: BoundSpec(REF_FAMILY, (
        Param("m_i", "m_profiles", PROFILES, require_band_profiles, upper="M_profiles"),
        Param("M_i", "M_profiles", PROFILES)), _BAND_NORM, _integral_extra),
    PROP_4_1: BoundSpec(REF_DIRECTION, _RHO, _BALL, _projection),
    PROP_4_2: BoundSpec(REF_DIRECTION, _BAND, _BAND_INNER, _projection),
    PROP_4_3: BoundSpec(REF_DIRECTION, (
        Param("k", "m_profile", PROFILE, require_band_profiles, upper="M_profile"),
        Param("K", "M_profile", PROFILE)), _BOX, _integral),
}


def validate_params(bound_id: str, params: BoundParams, n: int | None = None) -> None:
    """Presence, family length ``n`` and range of every parameter of ``bound_id``;
    a :class:`ParamError` names the offending scenario-file key."""
    spec = BOUNDS[bound_id]
    for p in spec.params:
        value = getattr(params, p.field)
        if value is None:
            raise ParamError(p.key, f"{bound_id} needs parameter {p.key!r}")
        if p.kind in LIST_KINDS and len(value) != n:
            raise ParamError(p.key, f"needs exactly {n} entries, got {len(value)}")
    for p in spec.params:
        if p.rule is None:
            continue
        columns = [getattr(params, name) for name in (p.field, p.upper) if name is not None]
        listed = p.kind in LIST_KINDS
        for i, row in enumerate(zip(*columns) if listed else [columns]):
            try:
                p.rule(*(x.values if isinstance(x, ScalarProfile) else x for x in row))
            except InputError as exc:
                raise ParamError(f"{p.key}[{i}]" if listed else p.key, str(exc)) from None


def evaluate(f: GridFunction, reference: Reference, params: BoundParams, bound_id: str,
             rule: str = DEFAULT_RULE, tau_hyp: float = DEFAULT_HYP_TOL,
             tau_on: float = DEFAULT_ORTHO_TOL) -> BoundResult:
    """Evaluate any bound on f's own integrals, ``defect(f, rule)``, kept on f.  It reads
    the part of ``reference`` its kind names (KARAMATA reads none).  Bounds with
    a direction check their unit reference at the default orthonormality tolerance.  A
    non-finite lhs, rhs, margin or error budget raises :class:`DegeneracyError`.  This is
    the one-trial case of :func:`evaluate_trials`, its hypothesis reports with kernels."""
    return evaluate_trials([(f, reference, params)], bound_id, rule, tau_hyp, tau_on,
                           kernels=True)[0]


def evaluate_trials(trials, bound_id: str, rule: str = DEFAULT_RULE,
                    tau_hyp: float = DEFAULT_HYP_TOL, tau_on: float = DEFAULT_ORTHO_TOL,
                    stacks: dict | None = None, kernels: bool = False) -> list[BoundResult]:
    """:func:`evaluate` of one bound on each trial (f, reference, params): every check runs
    on every trial, then the hypotheses and integrands are judged in stacked groups of rows.
    Several trials are judged together only from ``stacks``, a fuzz chunk's (see
    :func:`_chunk_stacks`), where an error need not be the first trial's own; without them,
    one at a time.  Only with ``kernels`` do the hypothesis reports carry kernels."""
    if stacks is None and len(trials) > 1:
        return [evaluate_trials([trial], bound_id, rule, tau_hyp, tau_on)[0] for trial in trials]
    spec = BOUNDS.get(bound_id)
    if spec is None:
        raise InputError(f"unknown bound id {quoted(bound_id)}")
    if spec.reference == REF_DIRECTION:
        tau_on = DEFAULT_ORTHO_TOL
    shape, family_row = spec.shape, spec.reference == REF_FAMILY
    fs, refs, ests = [f for f, _, _ in trials], [ref for _, ref, _ in trials], []
    for f, reference, params in trials:
        family = reference.family
        if spec.reference == REF_UNIT and reference.e is None:
            raise InputError(f"{bound_id} needs a unit reference vector")
        if family_row and (family is None or family.field != f.field or family.d != f.d):
            raise InputError(f"{bound_id} needs a family with the field and dimension of f")
        if stacks is None:
            validate_params(bound_id, params, None if family is None else family.n)
        ests.append(defect(f, rule))
    directed = spec.reference == REF_DIRECTION and shape.directed
    if directed and stacks is not None:   # the chunk's integrals of Re f and Im f, one pass
        pairs = stacks["values"][:, 0].view(np.float64).reshape(len(fs), -1, 2)
        value, diff = _integrate(fs[0].grid, pairs.transpose(1, 2, 0), None, rule)
        for f, parts in zip(fs, zip(value.T.tolist(), np.abs(diff).T.tolist())):
            f.keep(("part_integrals", rule), parts)
    directions = [_direction(f, ref, est, rule) if directed else None
                  for f, ref, est in zip(fs, refs, ests)]
    args = [[getattr(params, q.field) for q in spec.params] for _, _, params in trials]
    coords = [None if family_row else _unit_reference(
        shape, f, ref.e if direction is None else direction[0], tau_on)
        for f, ref, direction in zip(fs, refs, directions)]
    tables = (_chunk_stacks(spec, fs, args, stacks) if stacks is not None
              else _trial_stacks(fs[0], refs[0].family.matrix(), [q.key for q in spec.params],
                                 args[0]) if family_row
              else _trial_stacks(fs[0], coords[0], shape.names, [[p] for p in args[0]]))
    hyps = _hypotheses(shape, tables, tau_hyp, family_row, kernels)
    parts = _integrand_integrals(shape, tables, rule) if shape.integrand else [[]] * len(fs)
    return [_result(_Context(*row), spec, a, bound_id)
            for row, a in zip(zip(fs, ests, refs, directions, hyps, parts), args)]


def _chunk_stacks(spec: "BoundSpec", fs, args: list, given: dict) -> _Stacks:
    """The :class:`_Stacks` of a fuzz chunk's trials from its ``given`` stacks by table name
    and profile field and a number's from ``args``, once each range rule of
    :func:`validate_params` holds: a profile's on its stack, a number's value by value."""
    tables = {name: stack.reshape(len(stack), -1, stack.shape[-1])   # a view
              for name, stack in given.items()}
    tables["values"] = given["values"][:, None]
    values = {q.field: tables.pop(q.field) if q.kind in (PROFILE, PROFILES) else np.reshape(
        np.array([a[j] for a in args], dtype=np.float64), (len(args), -1, 1))
        for j, q in enumerate(spec.params)}
    for q in (q for q in spec.params if q.rule is not None):
        columns = [values[name] for name in (q.field, q.upper) if name]
        for row in ([columns] if q.kind in (PROFILE, PROFILES)
                    else zip(*(column.ravel().tolist() for column in columns))):
            q.rule(*row)
    return _Stacks(fs, None, list(values.values()), **tables)


def _result(c: _Context, spec: "BoundSpec", args: list, bound_id: str) -> BoundResult:
    """One trial's result: its row's right-hand-side form (with the split projection of a
    row with a direction), then the error budget, the verdict and the diagnostics."""
    est, direction = c.est, c.direction
    lhs, rhs, err, rhs_terms, extra_diags, mult = spec.rhs(c, spec, args, direction)
    if direction is not None:
        _, split, _, split_diags = direction
        rhs_terms, extra_diags = ({**rhs_terms, "split_projection": split},
                                  {**extra_diags, **split_diags})
    # an absolute error term for products that underflow: per node, the sums behind lhs and
    # rhs (the norms, 2d real coordinates, a profile) take 2d + 2, and the row's multiplier
    # scales the errors of the sums it multiplies
    n_nodes, d = c.f.values.shape
    err += _UNDERFLOW * n_nodes * (d + 1) * max(1.0, mult)
    lhs, rhs = float(lhs), float(rhs)
    scale = abs(lhs) + abs(rhs) + est.norm_integral + est.integral_norm
    err_budget = float(err) + ROUNDOFF * scale   # a relative roundoff floor
    margin = rhs - lhs
    if not all(map(math.isfinite, (lhs, rhs, margin, err_budget))):
        # Python floats overflow to inf without numpy's floating-point errors
        raise DegeneracyError(f"{bound_id} is not judged on non-finite numbers: lhs={lhs!r}, "
                              f"rhs={rhs!r}, margin={margin!r}, err_budget={err_budget!r}")
    verdict = (HYPOTHESIS_FAILED if not c.hyp.holds else HOLDS if margin >= -err_budget
               else VIOLATED)
    diagnostics = {"defect": est.value, "defect_err": est.norm_integral_err + est.integral_err,
                   "norm_integral": est.norm_integral, "integral_norm": est.integral_norm,
                   **extra_diags}
    return BoundResult(bound_id, lhs, rhs, {k: float(v) for k, v in rhs_terms.items()},
                       float(margin), c.hyp, err_budget, verdict,
                       {k: float(v) for k, v in diagnostics.items()})


def _require_group(bound_id: str, group: tuple, what: str) -> None:
    if bound_id not in group:
        raise InputError(f"{quoted(bound_id)} is not a {what} bound id")


def eval_unit_bound(f: GridFunction, e: HVector | None, params: BoundParams, bound_id: str,
                    rule: str = DEFAULT_RULE,
                    tau_hyp: float = DEFAULT_HYP_TOL,
                    tau_on: float = DEFAULT_ORTHO_TOL) -> BoundResult:
    """Evaluate a unit-reference bound (additive, multiplicative, or angle-based).

    ``e`` may be None only for KARAMATA, whose hypothesis is argument-based.
    """
    _require_group(bound_id, UNIT_BOUNDS, "unit-reference")
    return evaluate(f, Reference(REF_UNIT, e=e), params, bound_id, rule, tau_hyp, tau_on)


def eval_family_bound(f: GridFunction, family: OrthonormalFamily, params: BoundParams,
                      bound_id: str, rule: str = DEFAULT_RULE,
                      tau_hyp: float = DEFAULT_HYP_TOL,
                      tau_on: float = DEFAULT_ORTHO_TOL) -> BoundResult:
    """Evaluate an orthonormal-family bound: int||f|| <= ||int f||/sqrt(n) + extra."""
    _require_group(bound_id, FAMILY_BOUNDS, "family")
    return evaluate(f, Reference(REF_FAMILY, family=family), params, bound_id, rule, tau_hyp,
                    tau_on)


def eval_complex_bound(f: GridFunction, alpha: float, beta: float, params: BoundParams,
                       prop_id: str, rule: str = DEFAULT_RULE,
                       tau_hyp: float = DEFAULT_HYP_TOL) -> BoundResult:
    """Evaluate a complex-plane specialization with e = alpha + i beta, d = 1.

    The right-hand side is reported in split form
    ``alpha * int Re f + beta * int Im f`` (equal to Re<int f, e> up to
    roundoff; both appear in the result for cross-checking).
    """
    _require_group(prop_id, COMPLEX_BOUNDS, "complex-plane")
    return evaluate(f, Reference(REF_DIRECTION, alpha=alpha, beta=beta), params, prop_id,
                    rule, tau_hyp)
