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

:data:`BOUNDS` declares each bound once (reference kind, parameters, evaluator);
parsing, serialization, validation, evaluation, recipes and sweeps read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
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


def _require_unit_reference(f: GridFunction, e: HVector, tol: float) -> None:
    if e.field != f.field or e.d != f.d:
        raise InputError("reference vector field/dimension mismatch")
    require_unit(e, "reference vector", tol)


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


def _ball_residuals(f: GridFunction, center: np.ndarray, radius) -> np.ndarray:
    """||f(t) - center|| - radius(t)."""
    return f.distances(center) - radius


def _band_norm_residuals(f: GridFunction, e: np.ndarray, m_vals: np.ndarray,
                         M_vals: np.ndarray) -> np.ndarray:
    """||f(t) - (M+m)/2 e|| - (M-m)/2, the distances summed one column at a time."""
    center = np.broadcast_to(0.5 * (M_vals + m_vals), f.values.shape[:1])
    return row_norms(f.values, e, center) - 0.5 * (M_vals - m_vals)


def _dominance_residuals(norms, proj, k) -> np.ndarray:
    """||f(t)|| - Re<f(t), e> - k(t) from the node norms and projections."""
    return norms - proj - k


def _band_inner_residuals(norms, proj, m, M) -> np.ndarray:
    """-Re<M(t)e - f(t), f(t) - m(t)e> from the node norms and projections."""
    return np.square(norms) + m * M - (M + m) * proj


def check_dominance(f: GridFunction, e: HVector, k: ScalarProfile,
                    tau_hyp: float = DEFAULT_HYP_TOL,
                    tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """||f(t)|| - Re<f(t), e> <= k(t) at every node."""
    _require_unit_reference(f, e, tau_on)
    return _report("dominance", lambda: _dominance_residuals(
        f.norms(), f.projections(e.coords), _profile_on(f, k, "k")), tau_hyp)


def check_scaled_dominance(f: GridFunction, e: HVector, K: float,
                           tau_hyp: float = DEFAULT_HYP_TOL,
                           tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """||f(t)|| <= K * Re<f(t), e> at every node (multiplicative hypothesis)."""
    require_K(K)
    _require_unit_reference(f, e, tau_on)

    def residuals():
        scaled = K * f.projections(e.coords)
        return f.norms() - scaled
    return _report("dominance_scaled", residuals, tau_hyp)


def check_ball(f: GridFunction, e: HVector, radius: ScalarProfile | float,
               tau_hyp: float = DEFAULT_HYP_TOL,
               tau_on: float = DEFAULT_ORTHO_TOL) -> HypothesisReport:
    """||f(t) - e|| <= radius(t) at every node; a number is a constant radius."""
    _require_unit_reference(f, e, tau_on)
    return _report("ball", lambda: _ball_residuals(f, e.coords, _profile_on(f, radius, "radius")),
                   tau_hyp)


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
    _require_unit_reference(f, e, tau_on)
    m_vals = _profile_on(f, m, "m")
    M_vals = _profile_on(f, M, "M")
    require_band_profiles(m_vals, M_vals)
    if form == "inner":
        def residuals():
            p = f.projections(e.coords)
            return _band_inner_residuals(f.norms(), p, m_vals, M_vals)
        return _report("band_inner", residuals, tau_hyp)
    return _report("band_norm", lambda: _band_norm_residuals(f, e.coords, m_vals, M_vals),
                   tau_hyp)


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
    z = _complex_samples(f)
    m_vals = _profile_on(f, m, "m")
    M_vals = _profile_on(f, M, "M")
    x, y = z.real, z.imag
    box = _report("box", lambda: np.maximum(np.maximum(np.maximum(
        m_vals * alpha - x, x - M_vals * alpha), m_vals * beta - y), y - M_vals * beta), tau_hyp)
    e = HVector(COMPLEX, [complex(alpha, beta)])
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
    return _report("arg_cone", lambda: np.abs(np.angle(z)) - theta, tau_hyp)


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
# evaluators: (context, params) -> (hypothesis, lhs, rhs, err, rhs_terms, diagnostics)

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


def _ball(c: _Context, e: HVector, p: BoundParams):
    """The constant-radius ball hypothesis around e and its coefficient."""
    return check_ball(c.f, e, p.rho, c.tau_hyp, c.tau_on), ball_coefficient(p.rho)


def _band(c: _Context, e: HVector, p: BoundParams):
    """The constant band hypothesis around e (inner form) and its coefficient."""
    hyp = check_band(c.f, e, p.m, p.M, "inner", c.tau_hyp, c.tau_on)
    return hyp, band_coefficient(p.m, p.M)


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


def _integral_bound(c: _Context, hyp, s: float, samples, name: str):
    """defect <= s * int g for node samples g."""
    g = sample_integral(c.f.grid, samples, c.rule)
    err = s * g.err_est + c.est.norm_integral_err + c.est.integral_err
    return hyp, c.est.value, s * g.value, err, {name: g.value}, {}


def _projection_bound(c: _Context, hyp, coeff: float, proj: float, proj_err: float,
                      terms: dict, diags: dict):
    """defect <= coeff * proj for a projection proj of int f onto e."""
    err = coeff * proj_err + c.est.norm_integral_err + c.est.integral_err
    return hyp, c.est.value, coeff * proj, err, {"coefficient": coeff, **terms}, diags


def _unit_projection(c: _Context, p: BoundParams, hypothesis):
    """COR_2_2 / COR_2_3: the projection is Re<int f, e>; weak form coeff * ||int f||."""
    hyp, coeff = hypothesis(c, c.ref.e, p)
    proj = float(inner(c.est.integral, c.ref.e).real)
    weak = coeff * c.est.integral_norm
    return _projection_bound(c, hyp, coeff, proj, c.est.integral_err,
                             {"projection": proj, "weak_rhs": weak},
                             {"weak_margin": weak - c.est.value})


def _split_projection(c: _Context, p: BoundParams, hypothesis):
    """PROP_4_1 / PROP_4_2: the projection onto alpha + i beta, in split form."""
    e, split, split_err, diags = _direction(c)
    hyp, coeff = hypothesis(c, e, p)
    return _projection_bound(c, hyp, coeff, split, split_err, {"split_projection": split}, diags)


def _ratio_bound(c: _Context, hyp, factor: float, terms: dict):
    """factor * int ||f|| <= ||int f||."""
    err = c.est.integral_err + factor * c.est.norm_integral_err
    return hyp, factor * c.est.norm_integral, c.est.integral_norm, err, terms, {}


def _thm_2_1(c, p):
    hyp = check_dominance(c.f, c.ref.e, p.k, c.tau_hyp, c.tau_on)
    return _integral_bound(c, hyp, 1.0, p.k.values, "dominance_integral")


def _cor_2_4(c, p):
    hyp = check_ball(c.f, c.ref.e, p.r, c.tau_hyp, c.tau_on)
    return _integral_bound(c, hyp, 0.5, p.r.values ** 2, "r_squared_integral")


def _cor_2_5(c, p):
    hyp = check_band(c.f, c.ref.e, p.m_profile, p.M_profile, "norm", c.tau_hyp, c.tau_on)
    gap = band_gap_integrand(p.m_profile.values, p.M_profile.values)
    return _integral_bound(c, hyp, 0.25, gap, "band_gap_integral")


def _mult_a(c, p):
    hyp = check_scaled_dominance(c.f, c.ref.e, p.K, c.tau_hyp, c.tau_on)
    est = c.est
    return (hyp, est.norm_integral, p.K * est.integral_norm,
            p.K * est.integral_err + est.norm_integral_err,
            {"K": p.K, "integral_norm": est.integral_norm}, {})


def _mult_b(c, p):
    factor = math.sqrt(1.0 - p.rho * p.rho)
    return _ratio_bound(c, _ball(c, c.ref.e, p)[0], factor,
                        {"factor": factor, "integral_norm": c.est.integral_norm})


def _mult_c(c, p):
    # The certified bound is the corrected additive form
    #   defect <= (sqrt(M)-sqrt(m))^2/(M+m) * int ||f|| dt,
    # the only additive form derivable from the multiplicative one; the
    # printed variant with ||int f|| on the right is reported as a
    # diagnostic, never asserted.
    m, M, est = p.m, p.M, c.est
    hyp = _band(c, c.ref.e, p)[0]
    coeff = (math.sqrt(M) - math.sqrt(m)) ** 2 / (M + m)
    mult_factor = 2.0 * math.sqrt(m * M) / (M + m)
    lhs = est.value
    printed_rhs = coeff * est.integral_norm
    return (hyp, lhs, coeff * est.norm_integral,
            (1.0 + coeff) * est.norm_integral_err + est.integral_err,
            {"coefficient": coeff, "norm_integral": est.norm_integral},
            {
                "mult_factor": mult_factor,
                "mult_lhs": mult_factor * est.norm_integral,
                "mult_rhs": est.integral_norm,
                "mult_margin": est.integral_norm - mult_factor * est.norm_integral,
                "printed_rhs": printed_rhs,
                "printed_margin": printed_rhs - lhs,
            })


def _karamata(c, p):
    hyp = check_arg(c.f, p.theta, c.tau_hyp)
    factor = math.cos(p.theta)
    return _ratio_bound(c, hyp, factor,
                        {"cos_theta": factor, "norm_integral": c.est.norm_integral})


def _prop_4_3(c, p):
    _, split, _, diags = _direction(c)
    hyp = check_box_complex(c.f, c.ref.alpha, c.ref.beta, p.m_profile, p.M_profile, c.tau_hyp)
    gap = band_gap_integrand(p.m_profile.values, p.M_profile.values)
    hyp, lhs, rhs, err, terms, _ = _integral_bound(c, hyp, 0.25, gap, "band_gap_integral")
    return hyp, lhs, rhs, err, {**terms, "split_projection": split}, diags


# family bounds: int ||f|| <= ||int f|| / sqrt(n) + extra

def _family_bound(c: _Context, hyp, extra: float, extra_err: float, terms: dict,
                  diags: dict | None = None):
    n = c.ref.family.n
    family_term = c.est.integral_norm / math.sqrt(n)
    err = c.est.integral_err / math.sqrt(n) + extra_err + c.est.norm_integral_err
    return (hyp, c.est.norm_integral, family_term + extra, err,
            {"family_term": family_term, **terms, "extra": extra}, diags or {})


def _family_projections(c: _Context) -> np.ndarray:
    """Re<f(t), e_i> for every node and member as one (N+1, n) product."""
    return c.f.projections(c.ref.family.matrix())


def _integral_extra(c: _Context, hyp, samples, s: float, name: str):
    """extra = (1 / (s n)) * sum_i int g_i; ``samples`` yields the members' g_i, each
    integrated as it is made, so that one member's samples are alive at a time."""
    parts = [sample_integral(c.f.grid, g, c.rule) for g in samples]
    scale = s * c.ref.family.n
    extra = sum(p.value for p in parts) / scale
    extra_err = sum(p.err_est for p in parts) / scale
    terms = {f"{name}_{i}": p.value for i, p in enumerate(parts)}
    return _family_bound(c, hyp, extra, extra_err, terms)


def _projection_extra(c: _Context, hyp, coeffs: np.ndarray, diags: dict | None = None):
    """extra = Re<int f, (1/n) sum_i c_i e_i>; weak form with the rms coefficient."""
    n = c.ref.family.n
    direction = (coeffs[:, None] * c.ref.family.matrix()).sum(axis=0) / n
    extra = float(np.dot(c.est.integral.coords, np.conjugate(direction)).real)
    extra_err = vector_norm(direction) * c.est.integral_err
    weak = c.est.integral_norm / math.sqrt(n) * (1.0 + math.sqrt(float(np.mean(coeffs**2))))
    terms = {"projection_extra": extra, "weak_rhs": weak}
    terms.update((f"coefficient_{i}", float(v)) for i, v in enumerate(coeffs))
    diags = {"weak_margin": weak - c.est.norm_integral, **(diags or {})}
    return _family_bound(c, hyp, extra, extra_err, terms, diags)


def _thm_3_1(c, p):
    norms, proj = c.f.norms(), _family_projections(c)
    kernels = [lambda i=i, k=k: _dominance_residuals(norms, proj[:, i],
                                                     _profile_on(c.f, k, f"M_{i}"))
               for i, k in enumerate(p.dominance_profiles)]
    hyp = _family_check(kernels, "dominance_family", c.tau_hyp)
    return _integral_extra(c, hyp, (k.values for k in p.dominance_profiles), 1.0,
                           "dominance_integral")


def _cor_3_2(c, p):
    kernels = [lambda e=e, rho=rho: _ball_residuals(c.f, e.coords, rho)
               for e, rho in zip(c.ref.family.members, p.rhos)]
    hyp = _family_check(kernels, "ball_family", c.tau_hyp)
    coeffs = np.array([ball_coefficient(rho) for rho in p.rhos])
    printed = (c.est.integral_norm / math.sqrt(c.ref.family.n)
               * (1.0 + math.sqrt(float(np.mean(coeffs)))))
    return _projection_extra(c, hyp, coeffs, {"printed_weak_rhs": printed})


def _cor_3_3(c, p):
    norms, proj = c.f.norms(), _family_projections(c)
    kernels = [lambda i=i, m=m, M=M: _band_inner_residuals(norms, proj[:, i], m, M)
               for i, (m, M) in enumerate(zip(p.ms, p.Ms))]
    hyp = _family_check(kernels, "band_inner_family", c.tau_hyp)
    return _projection_extra(c, hyp, np.array([band_coefficient(m, M)
                                               for m, M in zip(p.ms, p.Ms)]))


def _cor_3_4(c, p):
    kernels = [lambda i=i, e=e, r=r: _ball_residuals(c.f, e.coords, _profile_on(c.f, r, f"r_{i}"))
               for i, (e, r) in enumerate(zip(c.ref.family.members, p.r_profiles))]
    hyp = _family_check(kernels, "ball_family", c.tau_hyp)
    return _integral_extra(c, hyp, (r.values ** 2 for r in p.r_profiles), 2.0,
                           "r_squared_integral")


def _cor_3_5(c, p):
    bands = list(zip(p.m_profiles, p.M_profiles))
    kernels = [lambda i=i, e=e, m=m, M=M: _band_norm_residuals(
                   c.f, e.coords, _profile_on(c.f, m, f"m_{i}"), _profile_on(c.f, M, f"M_{i}"))
               for i, (e, (m, M)) in enumerate(zip(c.ref.family.members, bands))]
    hyp = _family_check(kernels, "band_norm_family", c.tau_hyp)
    return _integral_extra(c, hyp, (band_gap_integrand(m.values, M.values) for m, M in bands),
                           4.0, "band_gap_integral")


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
    """A bound's reference kind, parameters and evaluator."""

    reference: str
    params: tuple[Param, ...]
    evaluate: Callable


_RHO = (Param("rho", "rho", NUMBER, require_radius),)
_BAND = (Param("m", "m", NUMBER, require_band, upper="M"), Param("M", "M", NUMBER))

BOUNDS: dict[str, BoundSpec] = {
    THM_2_1: BoundSpec(REF_UNIT, (Param("k", "k", PROFILE),), _thm_2_1),
    COR_2_2: BoundSpec(REF_UNIT, _RHO, lambda c, p: _unit_projection(c, p, _ball)),
    COR_2_3: BoundSpec(REF_UNIT, _BAND, lambda c, p: _unit_projection(c, p, _band)),
    COR_2_4: BoundSpec(REF_UNIT, (Param("r", "r", PROFILE),), _cor_2_4),
    COR_2_5: BoundSpec(REF_UNIT, (
        Param("m", "m_profile", PROFILE, require_band_profiles, upper="M_profile"),
        Param("M", "M_profile", PROFILE)), _cor_2_5),
    MULT_A: BoundSpec(REF_UNIT, (Param("K", "K", NUMBER, require_K),), _mult_a),
    MULT_B: BoundSpec(REF_UNIT, _RHO, _mult_b),
    MULT_C: BoundSpec(REF_UNIT, _BAND, _mult_c),
    KARAMATA: BoundSpec(REF_DIRECTION, (Param("theta", "theta", NUMBER, require_theta),),
                        _karamata),
    THM_3_1: BoundSpec(REF_FAMILY, (Param("M_i", "dominance_profiles", PROFILES),), _thm_3_1),
    COR_3_2: BoundSpec(REF_FAMILY, (Param("rho_i", "rhos", NUMBERS, require_radius),), _cor_3_2),
    COR_3_3: BoundSpec(REF_FAMILY, (Param("m_i", "ms", NUMBERS, require_band, upper="Ms"),
                                    Param("M_i", "Ms", NUMBERS)), _cor_3_3),
    COR_3_4: BoundSpec(REF_FAMILY, (Param("r_i", "r_profiles", PROFILES),), _cor_3_4),
    COR_3_5: BoundSpec(REF_FAMILY, (
        Param("m_i", "m_profiles", PROFILES, require_band_profiles, upper="M_profiles"),
        Param("M_i", "M_profiles", PROFILES)), _cor_3_5),
    PROP_4_1: BoundSpec(REF_DIRECTION, _RHO, lambda c, p: _split_projection(c, p, _ball)),
    PROP_4_2: BoundSpec(REF_DIRECTION, _BAND, lambda c, p: _split_projection(c, p, _band)),
    PROP_4_3: BoundSpec(REF_DIRECTION, (
        Param("k", "m_profile", PROFILE, require_band_profiles, upper="M_profile"),
        Param("K", "M_profile", PROFILE)), _prop_4_3),
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
    hyp, lhs, rhs, err_budget, rhs_terms, extra_diags = spec.evaluate(c, params)
    lhs, rhs = float(lhs), float(rhs)
    scale = abs(lhs) + abs(rhs) + est.norm_integral + est.integral_norm
    err_budget = float(err_budget) + ROUNDOFF * scale
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
