"""Constructors of functions achieving equality in each additive bound.

The unit-reference extremals are two-direction cone functions

    f(t) = alpha * e + s(t) * beta * u,   u orthogonal to e, both unit,

with s = +1 on the first half of the interval and -1 on the second, so the
integral of f is exactly alpha*(b-a)*e (a nonnegative multiple of e, as the
equality characterization requires) while the hypothesis of the target
bound is met with equality at every node.  Solving the two node-wise
equality conditions for (alpha, beta) gives closed forms per bound.

Family extremals take the fully symmetric direction sum(e_i)/sqrt(n) with a
nonnegative amplitude profile; per-index dominance is then tight with equal
profiles and the family bound evaluates to equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (
    BOUNDS,
    PROFILE,
    BoundParams,
    BoundResult,
    COR_2_2,
    COR_2_3,
    COR_2_4,
    COR_2_5,
    HOLDS,
    THM_2_1,
    ball_coefficient,
    band_coefficient,
    require_radius,
)
from .errors import InputError, StateError
from .gridfn import FunctionSpec, Grid, GridFunction, ScalarProfile, materialize
from .hilbert import HVector, OrthonormalFamily

#: Bounds with a closed-form equality recipe.
RECIPE_BOUNDS = (THM_2_1, COR_2_2, COR_2_3, COR_2_4, COR_2_5)


@dataclass(frozen=True)
class ExtremalRecipe:
    """Cone parameters achieving equality in ``bound_id`` on ``interval``."""

    bound_id: str
    alpha: float
    beta: float
    expected_defect: float
    params: dict[str, float]
    interval: tuple[float, float]

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise InputError(f"extremal component along e must be positive, got {self.alpha!r}")
        if self.beta < 0.0:
            raise InputError(f"orthogonal amplitude must be nonnegative, got {self.beta!r}")
        if self.expected_defect < 0.0:
            raise InputError("expected defect cannot be negative")


def solve_equality_params(bound_id: str, params: dict[str, float],
                          interval: tuple[float, float] = (0.0, 1.0)) -> ExtremalRecipe:
    """Closed-form (alpha, beta) solving the node-wise equality conditions.

    Per bound (length = b - a):

    * THM_2_1 (constant k > 0, chosen alpha > 0): dominance is tight iff
      sqrt(alpha^2 + beta^2) = alpha + k, so beta = sqrt(k^2 + 2 alpha k);
      defect = k * length.
    * COR_2_2 (rho): ||f|| = sqrt(1 - rho^2) and ||f - e|| = rho give
      alpha = 1 - rho^2, beta = rho * sqrt(1 - rho^2).
    * COR_2_3 (m, M): ||f|| = sqrt(mM) on the band boundary gives
      alpha = 2mM/(M+m), beta = sqrt(mM) (M-m)/(M+m).
    * COR_2_4 (constant r): tightness forces ||f|| = 1 with ||f - e|| = r,
      so alpha = 1 - r^2/2, beta = r sqrt(1 - r^2/4).
    * COR_2_5 (constants m, M; c0 = (M+m)/2, R = (M-m)/2): maximizing
      ||f|| - Re<f, e> on the disk boundary lands at ||f|| = c0:
      alpha = c0 - R^2/(2 c0), beta = sqrt(R^2 - R^4/(4 c0^2));
      defect = R^2/(2 c0) * length = (M-m)^2 / (4 (M+m)) * length.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise InputError(f"interval requires b > a, got [{a}, {b}]")
    length = b - a

    if bound_id == THM_2_1:
        k = float(params.get("k", 0.0))
        alpha = float(params.get("alpha", 1.0))
        if k <= 0.0 or alpha <= 0.0:
            raise InputError("THM_2_1 recipe needs constant k > 0 and alpha > 0")
        beta = math.sqrt(k * k + 2.0 * alpha * k)
        return ExtremalRecipe(bound_id, alpha, beta, k * length, {"k": k}, (a, b))

    if bound_id == COR_2_2:
        rho = float(params["rho"])
        c = ball_coefficient(rho)
        alpha = 1.0 - rho * rho
        beta = rho * math.sqrt(1.0 - rho * rho)
        return ExtremalRecipe(bound_id, alpha, beta, c * alpha * length, {"rho": rho}, (a, b))

    if bound_id == COR_2_3:
        m, M = float(params["m"]), float(params["M"])
        c = band_coefficient(m, M)
        alpha = 2.0 * m * M / (M + m)
        beta = math.sqrt(m * M) * (M - m) / (M + m)
        return ExtremalRecipe(bound_id, alpha, beta, c * alpha * length,
                              {"m": m, "M": M}, (a, b))

    if bound_id == COR_2_4:
        r = float(params["r"])
        require_radius(r)
        alpha = 1.0 - r * r / 2.0
        beta = r * math.sqrt(1.0 - r * r / 4.0)
        return ExtremalRecipe(bound_id, alpha, beta, 0.5 * r * r * length, {"r": r}, (a, b))

    if bound_id == COR_2_5:
        m, M = float(params["m"]), float(params["M"])
        if not 0.0 <= m <= M or M <= 0.0:
            raise InputError(f"COR_2_5 recipe needs 0 <= m <= M with M > 0, got {m!r}, {M!r}")
        c0 = 0.5 * (M + m)
        R = 0.5 * (M - m)
        alpha = c0 - R * R / (2.0 * c0)
        beta_sq = R * R - R ** 4 / (4.0 * c0 * c0)
        assert beta_sq >= 0.0, "disk geometry guarantees a real orthogonal amplitude"
        beta = math.sqrt(beta_sq)
        return ExtremalRecipe(bound_id, alpha, beta, R * R / (2.0 * c0) * length,
                              {"m": m, "M": M}, (a, b))

    raise InputError(f"no equality recipe for bound {bound_id!r}")


def recipe_bound_params(recipe: ExtremalRecipe, grid: Grid) -> BoundParams:
    """Bound parameters (constant profiles where needed) matching a recipe."""
    return BoundParams(**{
        q.field: ScalarProfile.constant(grid, recipe.params[q.key]) if q.kind == PROFILE
        else recipe.params[q.key]
        for q in BOUNDS[recipe.bound_id].params
    })


def build_unit_extremal(recipe: ExtremalRecipe, e: HVector, u: HVector,
                        grid: Grid) -> GridFunction:
    """Materialize the cone function of a recipe on ``grid``.

    Requires u orthogonal to e, both unit, and a grid over the recipe's
    interval.  The measured defect matches ``expected_defect`` up to
    rounding and the target bound's hypothesis is met with equality.
    """
    if (grid.a, grid.b) != recipe.interval:
        raise InputError(
            f"grid interval [{grid.a}, {grid.b}] differs from recipe interval {recipe.interval}"
        )
    spec = FunctionSpec.cone(e, u, recipe.alpha, recipe.beta)
    return materialize(spec, grid, e.field, e.d)


def build_family_extremal(family: OrthonormalFamily, c: ScalarProfile,
                          grid: Grid) -> tuple[GridFunction, tuple[ScalarProfile, ...]]:
    """Symmetric-direction family extremal and its tight dominance profiles.

    f(t) = c(t) * sum(e_i)/sqrt(n) with c >= 0; each index's dominance gap is
    exactly c(t) * (1 - 1/sqrt(n)), so the family bound holds with equality.
    """
    if c.grid != grid:
        raise InputError("amplitude profile lives on a different grid")
    f = materialize(FunctionSpec.family_symmetric(family, c), grid, family.field, family.d)
    gap = ScalarProfile(grid, c.values * (1.0 - 1.0 / math.sqrt(family.n)))
    profiles = tuple(gap for _ in range(family.n))
    return f, profiles


def tightness_gap(result: BoundResult) -> float:
    """Distance to equality of a holding bound result (its margin)."""
    if result.verdict != HOLDS:
        raise StateError(f"tightness gap undefined for verdict {result.verdict!r}")
    return result.margin
