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
kernel, its checker, and what it gives a right-hand side (an integrand and scale, a
coefficient or a factor).  A family bound applies its shape to each member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import DegeneracyError, InputError, ParamError
from .gridfn import (
    NUMBER,
    PROFILE,
    GridFunction,
    ScalarProfile,
    require_unit,
    row_norms,
)
from .hilbert import COMPLEX, DEFAULT_ORTHO_TOL, HVector, OrthonormalFamily, inner, vector_norm
from .quadrature import DEFAULT_RULE, ROUNDOFF, DefectEstimate, defect, sample_integral

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
    family), returning a fresh array of the same bytes.  A report without a kernel, as
    ``run()`` returns them (see :meth:`without_kernels`), holds numbers only.
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

    def without_kernels(self) -> "HypothesisReport":
        """This report and its sub-reports without their kernels, which hold f and the
        profiles alive."""
        subs = self.sub_reports
        return HypothesisReport(self.condition_id, self.holds, self.worst_violation,
                                self.worst_node, None, self.tol,
                                None if subs is None else tuple(s.without_kernels() for s in subs))

    @property
    def failing_indices(self) -> tuple[int, ...]:
        if not self.sub_reports:
            return ()
        return tuple(i for i, r in enumerate(self.sub_reports) if not r.holds)


def _report(condition_id: str, kernel, tol: float, residuals=None,
            sub_reports=None) -> HypothesisReport:
    """The report of ``kernel``'s residuals, computed here unless given."""
    residuals = kernel() if residuals is None else residuals
    worst_node = int(np.argmax(residuals))
    worst = max(float(residuals[worst_node]), 0.0)
    holds = worst <= tol
    if sub_reports is not None:
        holds = holds and all(r.holds for r in sub_reports)
        sub_reports = tuple(sub_reports)
    return HypothesisReport(condition_id, holds, worst, worst_node, kernel, tol, sub_reports)


def _profile_on(f: GridFunction, p: ScalarProfile | float, name: str) -> np.ndarray:
    """A profile's node values, or a number as a 0-d array: numpy arithmetic on it
    gives the node values of the constant profile and raises the same errors.  A
    number, like a constant profile, must not be negative."""
    if isinstance(p, ScalarProfile):
        if p.grid != f.grid:
            raise InputError(f"{name} profile lives on a different grid")
        return p.values
    if isinstance(p, bool) or not isinstance(p, (int, float, np.integer, np.floating)):
        raise InputError(f"{name} must be a profile or a number, got {p!r}")
    if p < 0.0:
        raise InputError(f"{name} is negative: {p!r}")
    return np.asarray(p, dtype=np.float64)


# --------------------------------------------------------------------------
# residual kernels: kernel(f, e, *values, proj) gives the residual at every node for the
# reference coordinates e and the parameters' node values (a number as a 0-d array);
# proj() is Re<f(t), e>, read from f's node tables.  The shapes below declare the rest.

def _ball_residuals(f: GridFunction, e: np.ndarray, radius, proj=None) -> np.ndarray:
    """||f(t) - e|| - radius(t)."""
    return f.distances(e) - radius


def _band_norm_residuals(f: GridFunction, e: np.ndarray, m_vals: np.ndarray,
                         M_vals: np.ndarray, proj=None) -> np.ndarray:
    """||f(t) - (M+m)/2 e|| - (M-m)/2, the distances summed one column at a time."""
    center = np.broadcast_to(0.5 * (M_vals + m_vals), f.values.shape[:1])
    return row_norms(f.values, e, center) - 0.5 * (M_vals - m_vals)


def _box_residuals(f: GridFunction, e: np.ndarray, m, M, proj=None) -> np.ndarray:
    """How far f(t) lies outside the box [m, M] alpha x i [m, M] beta, e = alpha + i beta."""
    z, alpha, beta = f.values[:, 0], e[0].real, e[0].imag
    x, y = z.real, z.imag
    return np.maximum(np.maximum(np.maximum(m * alpha - x, x - M * alpha), m * beta - y),
                      y - M * beta)


# --------------------------------------------------------------------------
# hypothesis checkers

def _shape_report(shape: "_Shape", f: GridFunction, e, values, tau_hyp: float):
    """The report of ``shape``'s kernel on f against the coordinates e."""
    return _report(shape.condition_id, partial(shape.kernel, f, e, *values,
                                               proj=partial(f.projections, e)), tau_hyp)


def _unit_check(shape: "_Shape", f: GridFunction, e: HVector, tau_hyp: float, tau_on: float,
                require=lambda *values: None, **params) -> HypothesisReport:
    """``shape`` against the unit reference e; ``require`` judges ``params``' node values."""
    if e.field != f.field or e.d != f.d:
        raise InputError("reference vector field/dimension mismatch")
    require_unit(e, "reference vector", tau_on)
    values = [_profile_on(f, p, name) for name, p in params.items()]
    require(*values)
    return _shape_report(shape, f, e.coords, values, tau_hyp)


def check_dominance(f: GridFunction, e: HVector, k: ScalarProfile,
                    tau_hyp: float = DEFAULT_HYP_TOL,
                    tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """||f(t)|| - Re<f(t), e> <= k(t) at every node."""
    return _unit_check(_DOMINANCE, f, e, tau_hyp, tau_on, k=k)


def check_scaled_dominance(f: GridFunction, e: HVector, K: float,
                           tau_hyp: float = DEFAULT_HYP_TOL,
                           tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """||f(t)|| <= K * Re<f(t), e> at every node (multiplicative hypothesis)."""
    require_K(K)
    return _unit_check(_SCALED_DOMINANCE, f, e, tau_hyp, tau_on, K=K)


def check_ball(f: GridFunction, e: HVector, radius: ScalarProfile | float,
               tau_hyp: float = DEFAULT_HYP_TOL,
               tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """||f(t) - e|| <= radius(t) at every node; a number is a constant radius."""
    return _unit_check(_BALL, f, e, tau_hyp, tau_on, radius=radius)


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
        raise InputError(f"band form must be 'inner' or 'norm', got {form!r}")
    shape = _BAND_INNER if form == "inner" else _BAND_NORM
    return _unit_check(shape, f, e, tau_hyp, tau_on, require_band_profiles, m=m, M=M)


def _complex_samples(f: GridFunction) -> np.ndarray:
    if f.field != COMPLEX or f.d != 1:
        raise InputError("this check needs a d=1 complex grid function")
    return f.values[:, 0]


def check_box_complex(f: GridFunction, alpha: float, beta: float,
                      m: ScalarProfile, M: ScalarProfile,
                      tau_hyp: float = DEFAULT_HYP_TOL) -> HypothesisReport:
    """Rectangle condition m*alpha <= Re f <= M*alpha, m*beta <= Im f <= M*beta.

    A sufficient condition for the band containment around e = alpha + i beta;
    on success the implied band check is also run and attached as a sub-report.
    """
    require_direction(alpha, beta)
    _complex_samples(f)
    e = HVector(COMPLEX, [complex(alpha, beta)])
    box = _shape_report(_BOX, f, e.coords, [_profile_on(f, m, "m"), _profile_on(f, M, "M")],
                        tau_hyp)
    band = check_band(f, e, m, M, form="inner", tau_hyp=tau_hyp)
    return replace(box, holds=box.holds and band.holds, sub_reports=(band,))


def check_arg(f: GridFunction, theta: float,
              tau_hyp: float = DEFAULT_HYP_TOL) -> HypothesisReport:
    """|arg f(t)| <= theta at every node, theta in (0, pi/2)."""
    require_theta(theta)
    z = _complex_samples(f)
    if np.any(z == 0.0):
        j = int(np.argmax(z == 0.0))
        raise DegeneracyError(f"argument undefined: f vanishes at node {j}")
    return _shape_report(_ARG_CONE, f, None, [_profile_on(f, theta, "theta")], tau_hyp)


def _running_max(kernels, visit=lambda i, kernel, residuals: None) -> np.ndarray:
    """The node-wise maximum of the members' residuals, one member evaluated at a time so
    that at most two node arrays are alive; ``visit`` sees each member's before the fold.
    A kernel returns a fresh array, and the first member's becomes the running maximum."""
    combined = None
    for i, kernel in enumerate(kernels):
        residuals = kernel()
        visit(i, kernel, residuals)
        combined = residuals if combined is None else np.maximum(combined, residuals, out=combined)
        del residuals   # freed before the next member's kernel runs
    return combined


def _family_check(kernels, condition_id: str, tau_hyp: float) -> HypothesisReport:
    """Each member judged on its own residuals, the family on their running maximum."""
    subs = []
    combined = _running_max(kernels, lambda i, kernel, residuals: subs.append(
        _report(f"{condition_id}[{i}]", kernel, tau_hyp, residuals)))
    return _report(condition_id, lambda: _running_max(kernels), tau_hyp, combined, subs)


# --------------------------------------------------------------------------
# hypothesis shapes

@dataclass(frozen=True, eq=False)
class _Shape:
    """A node-wise hypothesis, once for every bound that assumes it: its residual
    ``kernel``, reported as ``condition_id``; ``check(f, e, *params, tau_hyp=, tau_on=)``
    against one reference vector e (a family applies ``kernel`` to each member); and what
    it gives a right-hand side: the ``integrand`` g of its parameters' node values and the
    ``scale`` s of defect <= s int g (a family divides by 1/s), the ``coefficient`` of
    defect <= c * projection, or the ``factor`` of factor * int ||f|| <= ||int f||.
    ``terms`` names the integral, or the factor and the estimate beside it, in
    ``rhs_terms``; ``directed`` is False for the hypothesis that reads no reference.  Shapes
    compare by identity: with a reference kind, one keys a fuzz generator and a recipe."""

    condition_id: str
    kernel: Callable
    check: Callable
    integrand: Callable | None = None
    scale: float = 1.0
    coefficient: Callable | None = None
    factor: Callable | None = None
    terms: tuple[str, ...] = ()
    directed: bool = True


_DOMINANCE = _Shape("dominance", lambda f, e, k, proj: f.norms() - proj() - k,
                    check_dominance, integrand=lambda k: k, terms=("dominance_integral",))
_SCALED_DOMINANCE = _Shape("dominance_scaled", lambda f, e, K, proj: f.norms() - K * proj(),
                           check_scaled_dominance)
_BALL = _Shape("ball", _ball_residuals, check_ball, coefficient=ball_coefficient,
               factor=lambda rho: math.sqrt(1.0 - rho * rho), terms=("factor", "integral_norm"))
_BALL_PROFILE = _Shape("ball", _ball_residuals, check_ball, integrand=lambda r: r ** 2,
                       scale=0.5, terms=("r_squared_integral",))
# -Re<M(t)e - f(t), f(t) - m(t)e>
_BAND_INNER = _Shape("band_inner",
                     lambda f, e, m, M, proj: np.square(f.norms()) + m * M - (M + m) * proj(),
                     check_band, coefficient=band_coefficient)
_BAND_NORM = _Shape("band_norm", _band_norm_residuals, partial(check_band, form="norm"),
                    integrand=band_gap_integrand, scale=0.25, terms=("band_gap_integral",))
# |arg f(t)| - theta for a d=1 complex f
_ARG_CONE = _Shape("arg_cone", lambda f, e, theta, proj: np.abs(np.angle(f.values[:, 0])) - theta,
                   lambda f, e, theta, tau_hyp, tau_on: check_arg(f, theta, tau_hyp),
                   factor=math.cos, terms=("cos_theta", "norm_integral"), directed=False)
_BOX = _Shape("box", _box_residuals,
              lambda f, e, m, M, tau_hyp, tau_on: check_box_complex(
                  f, e.coords[0].real, e.coords[0].imag, m, M, tau_hyp),
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

    def without_kernels(self) -> "BoundResult":
        """This result with its hypothesis report :meth:`~HypothesisReport.without_kernels`:
        numbers and strings only."""
        return BoundResult(self.bound_id, self.lhs, self.rhs, self.rhs_terms, self.margin,
                           self.hypothesis.without_kernels(), self.err_budget, self.verdict,
                           self.diagnostics)


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


@dataclass(frozen=True, eq=False)
class _Context:
    """One evaluation's inputs; ``est`` holds the integrals every bound shares."""

    f: GridFunction
    est: DefectEstimate
    ref: Reference
    rule: str
    tau_hyp: float
    tau_on: float


def _direction(c: _Context):
    """e = alpha + i beta, the split projection alpha int Re f + beta int Im f with
    its error, and the diagnostics comparing it with Re<int f, e>.  The integrals of
    Re f and Im f, each with its part of every jump of f, are computed once per f and rule."""
    alpha, beta = c.ref.alpha, c.ref.beta
    require_direction(alpha, beta)
    z = _complex_samples(c.f)
    e = HVector(COMPLEX, [complex(alpha, beta)])
    jumps = c.f.jumps or {}
    re_int, im_int = c.f.cached(("part_integrals", c.rule), lambda: tuple(
        sample_integral(c.f.grid, part(z), c.rule, {j: part(v[0]) for j, v in jumps.items()})
        for part in (np.real, np.imag)))
    split = alpha * re_int.value + beta * im_int.value
    split_err = alpha * re_int.err_est + beta * im_int.err_est
    proj = float(inner(c.est.integral, e).real)
    return e, split, split_err, {"projection": proj, "split_gap": split - proj}


def _outcome(c: _Context, spec: "BoundSpec", params: BoundParams):
    """(hypothesis, lhs, rhs, err, rhs_terms, diagnostics) of one row: its shape, then its
    right-hand-side form; a row with a direction reports the split projection too."""
    args = [getattr(params, q.field) for q in spec.params]
    directed = spec.reference == REF_DIRECTION and spec.shape.directed
    direction = _direction(c) if directed else None
    hyp = _hypothesis(c, spec, args, direction)
    lhs, rhs, err, terms, diags, mult = spec.rhs(c, spec, args, direction)
    if direction is not None:
        _, split, _, split_diags = direction
        terms, diags = {**terms, "split_projection": split}, {**diags, **split_diags}
    # an absolute error term for products that underflow: per node, the sums behind lhs and
    # rhs (the norms, 2d real coordinates, a profile) take 2d + 2, and the row's multiplier
    # scales the errors of the sums it multiplies
    n_nodes, d = c.f.values.shape
    return hyp, lhs, rhs, err + _UNDERFLOW * n_nodes * (d + 1) * max(1.0, mult), terms, diags


def _hypothesis(c: _Context, spec: "BoundSpec", args: list, direction=None):
    """The row's shape checked against its reference vector, or member by member against a
    family, each member reading its column of the one (N+1, n) projection table; a member's
    profile is named by its file key with the index for ``i``, its number stays a float."""
    shape = spec.shape
    if spec.reference != REF_FAMILY:
        e = c.ref.e if direction is None else direction[0]
        return shape.check(c.f, e, *args, tau_hyp=c.tau_hyp, tau_on=c.tau_on)
    kernels = []
    for i, (e, *member) in enumerate(zip(c.ref.family.members, *args)):
        values = [p if q.kind == NUMBERS else _profile_on(c.f, p, q.key.replace("_i", f"_{i}"))
                  for p, q in zip(member, spec.params)]
        kernels.append(partial(shape.kernel, c.f, e.coords, *values,
                               proj=lambda i=i: _family_projections(c)[:, i]))
    return _family_check(kernels, f"{shape.condition_id}_family", c.tau_hyp)


# right-hand-side forms: rhs(context, spec, parameter values, direction)
#   -> (lhs, rhs, err, rhs_terms, diagnostics, multiplier); the multiplier is the constant
#   that scales the integrals of the side it stands on (a scale, coefficient, factor or K)

def _integral(c: _Context, spec: "BoundSpec", args: list, direction):
    """defect <= s * int g for the shape's integrand g and scale s."""
    shape = spec.shape
    if spec.reference == REF_FAMILY:
        return _integral_extra(c, shape, args)
    g = sample_integral(c.f.grid, shape.integrand(*(p.values for p in args)), c.rule)
    err = shape.scale * g.err_est + c.est.norm_integral_err + c.est.integral_err
    return c.est.value, shape.scale * g.value, err, {shape.terms[0]: g.value}, {}, shape.scale


def _projection(c: _Context, spec: "BoundSpec", args: list, direction, printed=False):
    """defect <= coeff * Re<int f, e> and its weak form coeff * ||int f||, or along a
    direction the split projection; ``printed``: a family's weak form as printed too."""
    shape = spec.shape
    if spec.reference == REF_FAMILY:
        return _projection_extra(c, np.array([shape.coefficient(*m) for m in zip(*args)]),
                                 printed)
    coeff = shape.coefficient(*args)
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


def _family_projections(c: _Context) -> np.ndarray:
    """Re<f(t), e_i> for every node and member as one (N+1, n) product."""
    return c.f.projections(c.ref.family.matrix())


def _integral_extra(c: _Context, shape: _Shape, args: list):
    """extra = sum_i int g_i / ((1/s) n), each g_i integrated as it is made."""
    parts = [sample_integral(c.f.grid, shape.integrand(*(p.values for p in member)), c.rule)
             for member in zip(*args)]
    scale = (1.0 / shape.scale) * c.ref.family.n
    extra = sum(part.value for part in parts) / scale
    extra_err = sum(part.err_est for part in parts) / scale
    terms = {f"{shape.terms[0]}_{i}": part.value for i, part in enumerate(parts)}
    return _family_bound(c, extra, extra_err, terms)


def _projection_extra(c: _Context, coeffs: np.ndarray, printed: bool):
    """extra = Re<int f, (1/n) sum_i c_i e_i>; weak form with the rms coefficient."""
    n = c.ref.family.n
    direction = (coeffs[:, None] * c.ref.family.matrix()).sum(axis=0) / n
    extra = float(np.dot(c.est.integral.coords, np.conjugate(direction)).real)
    extra_err = vector_norm(direction) * c.est.integral_err
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
                       _DOMINANCE, _integral),
    COR_3_2: BoundSpec(REF_FAMILY, (Param("rho_i", "rhos", NUMBERS, require_radius),), _BALL,
                       partial(_projection, printed=True)),
    COR_3_3: BoundSpec(REF_FAMILY, (Param("m_i", "ms", NUMBERS, require_band, upper="Ms"),
                                    Param("M_i", "Ms", NUMBERS)), _BAND_INNER, _projection),
    COR_3_4: BoundSpec(REF_FAMILY, (Param("r_i", "r_profiles", PROFILES),), _BALL_PROFILE,
                       _integral),
    COR_3_5: BoundSpec(REF_FAMILY, (
        Param("m_i", "m_profiles", PROFILES, require_band_profiles, upper="M_profiles"),
        Param("M_i", "M_profiles", PROFILES)), _BAND_NORM, _integral),
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


def evaluate(f: GridFunction, est: DefectEstimate, reference: Reference, params: BoundParams,
             bound_id: str, rule: str = DEFAULT_RULE, tau_hyp: float = DEFAULT_HYP_TOL,
             tau_on: float = DEFAULT_ORTHO_TOL) -> BoundResult:
    """Evaluate any bound given ``est = defect(f, rule)``, which callers compute once per f.
    It reads the part of ``reference`` its kind names (KARAMATA reads none).  Bounds with
    a direction check their unit reference at the default orthonormality tolerance.  A
    non-finite lhs, rhs, margin or error budget raises :class:`DegeneracyError`."""
    spec = BOUNDS.get(bound_id)
    if spec is None:
        raise InputError(f"unknown bound id {bound_id!r}")
    if spec.reference == REF_UNIT and reference.e is None:
        raise InputError(f"{bound_id} needs a unit reference vector")
    family = reference.family
    if spec.reference == REF_FAMILY and (family is None or family.field != f.field
                                         or family.d != f.d):
        raise InputError(f"{bound_id} needs a family with the field and dimension of f")
    if spec.reference == REF_DIRECTION:
        tau_on = DEFAULT_ORTHO_TOL
    validate_params(bound_id, params, None if family is None else family.n)
    c = _Context(f, est, reference, rule, tau_hyp, tau_on)
    hyp, lhs, rhs, err_budget, rhs_terms, extra_diags = _outcome(c, spec, params)
    lhs, rhs = float(lhs), float(rhs)
    scale = abs(lhs) + abs(rhs) + est.norm_integral + est.integral_norm
    err_budget = float(err_budget) + ROUNDOFF * scale   # a relative roundoff floor
    margin = rhs - lhs
    if not all(map(math.isfinite, (lhs, rhs, margin, err_budget))):
        # Python floats overflow to inf without numpy's floating-point errors
        raise DegeneracyError(f"{bound_id} is not judged on non-finite numbers: lhs={lhs!r}, "
                              f"rhs={rhs!r}, margin={margin!r}, err_budget={err_budget!r}")
    if not hyp.holds:
        verdict = HYPOTHESIS_FAILED
    elif margin >= -err_budget:
        verdict = HOLDS
    else:
        verdict = VIOLATED
    diagnostics = {
        "defect": est.value,
        "defect_err": est.norm_integral_err + est.integral_err,
        "norm_integral": est.norm_integral,
        "integral_norm": est.integral_norm,
        **extra_diags,
    }
    return BoundResult(
        bound_id, lhs, rhs, {k: float(v) for k, v in rhs_terms.items()},
        float(margin), hyp, err_budget, verdict,
        {k: float(v) for k, v in diagnostics.items()},
    )


def _require_group(bound_id: str, group: tuple, what: str) -> None:
    if bound_id not in group:
        raise InputError(f"{bound_id!r} is not a {what} bound id")


def eval_unit_bound(f: GridFunction, e: HVector | None, params: BoundParams, bound_id: str,
                    rule: str = DEFAULT_RULE,
                    tau_hyp: float = DEFAULT_HYP_TOL,
                    tau_on: float = DEFAULT_ORTHO_TOL) -> BoundResult:
    """Evaluate a unit-reference bound (additive, multiplicative, or angle-based).

    ``e`` may be None only for KARAMATA, whose hypothesis is argument-based.
    """
    _require_group(bound_id, UNIT_BOUNDS, "unit-reference")
    return evaluate(f, defect(f, rule), Reference(REF_UNIT, e=e), params, bound_id, rule,
                    tau_hyp, tau_on)


def eval_family_bound(f: GridFunction, family: OrthonormalFamily, params: BoundParams,
                      bound_id: str, rule: str = DEFAULT_RULE,
                      tau_hyp: float = DEFAULT_HYP_TOL,
                      tau_on: float = DEFAULT_ORTHO_TOL) -> BoundResult:
    """Evaluate an orthonormal-family bound: int||f|| <= ||int f||/sqrt(n) + extra."""
    _require_group(bound_id, FAMILY_BOUNDS, "family")
    return evaluate(f, defect(f, rule), Reference(REF_FAMILY, family=family), params, bound_id,
                    rule, tau_hyp, tau_on)


def eval_complex_bound(f: GridFunction, alpha: float, beta: float, params: BoundParams,
                       prop_id: str, rule: str = DEFAULT_RULE,
                       tau_hyp: float = DEFAULT_HYP_TOL) -> BoundResult:
    """Evaluate a complex-plane specialization with e = alpha + i beta, d = 1.

    The right-hand side is reported in split form
    ``alpha * int Re f + beta * int Im f`` (equal to Re<int f, e> up to
    roundoff; both appear in the result for cross-checking).
    """
    _require_group(prop_id, COMPLEX_BOUNDS, "complex-plane")
    return evaluate(f, defect(f, rule), Reference(REF_DIRECTION, alpha=alpha, beta=beta), params,
                    prop_id, rule, tau_hyp)
