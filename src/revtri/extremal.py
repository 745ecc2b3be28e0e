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
from collections.abc import Callable
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


def _recipe_name(bound_id: str, params: dict) -> str:
    return f"{bound_id} equality recipe at " + ", ".join(f"{k}={v!r}" for k, v in params.items())


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
        if not all(map(math.isfinite, (self.alpha, self.beta, self.expected_defect))):
            raise InputError(
                f"{_recipe_name(self.bound_id, self.params)} is not finite: alpha="
                f"{self.alpha!r}, beta={self.beta!r}, expected defect {self.expected_defect!r}")
        if not self.alpha > 0.0:
            raise InputError(f"extremal component along e must be positive, got {self.alpha!r}")
        if self.beta < 0.0:
            raise InputError(f"orthogonal amplitude must be nonnegative, got {self.beta!r}")
        if self.expected_defect < 0.0:
            raise InputError("expected defect cannot be negative")


def _thm_2_1(k, alpha):
    """Dominance is tight iff sqrt(alpha^2 + beta^2) = alpha + k: beta = sqrt(k^2 + 2 alpha k)."""
    if k <= 0.0 or alpha <= 0.0:
        raise InputError("THM_2_1 recipe needs constant k > 0 and alpha > 0")
    return alpha, math.sqrt(k * k + 2.0 * alpha * k), k


def _cor_2_2(rho):
    """||f|| = sqrt(1 - rho^2), ||f - e|| = rho: alpha = 1 - rho^2, beta = rho sqrt(1 - rho^2)."""
    c = ball_coefficient(rho)
    alpha = 1.0 - rho * rho
    return alpha, rho * math.sqrt(1.0 - rho * rho), c * alpha


def _cor_2_3(m, M):
    """||f|| = sqrt(mM) on the band boundary: alpha = 2mM/(M+m), beta = sqrt(mM) (M-m)/(M+m)."""
    c = band_coefficient(m, M)
    alpha = 2.0 * m * M / (M + m)
    return alpha, math.sqrt(m * M) * (M - m) / (M + m), c * alpha


def _cor_2_4(r):
    """Tightness forces ||f|| = 1, ||f - e|| = r: alpha = 1 - r^2/2, beta = r sqrt(1 - r^2/4)."""
    require_radius(r)
    return 1.0 - r * r / 2.0, r * math.sqrt(1.0 - r * r / 4.0), 0.5 * r * r


def _cor_2_5(m, M):
    """c0 = (M+m)/2, R = (M-m)/2: maximizing ||f|| - Re<f, e> on the disk boundary lands
    at ||f|| = c0, so alpha = c0 - R^2/(2 c0), beta = sqrt(R^2 - R^4/(4 c0^2)); defect
    R^2/(2 c0) = (M-m)^2 / (4 (M+m)) per unit length."""
    if not 0.0 <= m <= M or M <= 0.0:
        raise InputError(f"COR_2_5 recipe needs 0 <= m <= M with M > 0, got {m!r}, {M!r}")
    c0 = 0.5 * (M + m)
    R = 0.5 * (M - m)
    alpha = c0 - R * R / (2.0 * c0)
    return alpha, math.sqrt(R * R - R ** 4 / (4.0 * c0 * c0)), R * R / (2.0 * c0)


@dataclass(frozen=True)
class Recipe:
    """Where a sweep starts, and ``solve(**params) -> (alpha, beta, defect per unit length)``."""

    defaults: dict[str, float]
    solve: Callable[..., tuple[float, float, float]]


#: Every closed-form equality recipe, by bound.
RECIPES: dict[str, Recipe] = {
    THM_2_1: Recipe({"k": 0.5, "alpha": 1.0}, _thm_2_1),
    COR_2_2: Recipe({"rho": 0.6}, _cor_2_2),
    COR_2_3: Recipe({"m": 1.0, "M": 4.0}, _cor_2_3),
    COR_2_4: Recipe({"r": 0.5}, _cor_2_4),
    COR_2_5: Recipe({"m": 1.0, "M": 4.0}, _cor_2_5),
}

#: Bounds with a closed-form equality recipe.
RECIPE_BOUNDS = tuple(RECIPES)


def solve_equality_params(bound_id: str, params: dict[str, float],
                          interval: tuple[float, float] = (0.0, 1.0)) -> ExtremalRecipe:
    """Closed-form (alpha, beta) solving the node-wise equality conditions (``RECIPES``).

    Every bound parameter is required; other recipe parameters (THM_2_1's alpha) come from
    the recipe's defaults.  A recipe that overflows, divides by zero, or gives a non-finite
    alpha, beta or expected defect raises :class:`InputError` naming bound and parameters.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise InputError(f"interval requires b > a, got [{a}, {b}]")
    if bound_id not in RECIPES:
        raise InputError(f"no equality recipe for bound {bound_id!r}")
    recipe = RECIPES[bound_id]
    keys = tuple(q.key for q in BOUNDS[bound_id].params)
    for key in keys:
        if key not in params:
            raise InputError(f"{bound_id} recipe needs parameter {key!r}")
    values = {key: float(params.get(key, default)) for key, default in recipe.defaults.items()}
    try:
        alpha, beta, rate = recipe.solve(**values)
    except OverflowError:
        raise InputError(f"{_recipe_name(bound_id, params)} overflows") from None
    except ZeroDivisionError:
        raise InputError(f"{_recipe_name(bound_id, params)} divides by zero") from None
    return ExtremalRecipe(bound_id, alpha, beta, rate * (b - a),
                          {key: values[key] for key in keys}, (a, b))


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
