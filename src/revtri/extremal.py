"""Equality cases of the additive bounds: one ``RECIPES`` row per bound.

The unit-reference rows are two-direction cone functions

    f(t) = alpha * e + s(t) * beta * u,   u orthogonal to e, both unit,

with s = +1 on the first half of the interval and -1 on the second, so the
integral of f is exactly alpha*(b-a)*e (a nonnegative multiple of e, as the
equality characterization requires) while the hypothesis of the target
bound is met with equality at every node.  Solving the two node-wise
equality conditions for (alpha, beta) gives closed forms per bound.

The THM_3_1 row takes the fully symmetric direction sum(e_i)/sqrt(n) with a
nonnegative amplitude profile; per-index dominance is then tight with equal
profiles and the family bound evaluates to equality.

:func:`extremal_scenario` builds the canned scenario of any row, which ``revtri
extremal`` and ``revtri sweep`` run; they take their flags and choices from the table.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .bounds import (BOUNDS, COR_2_2, COR_2_3, COR_2_4, COR_2_5, PROFILE, REF_FAMILY, REF_UNIT,
                     THM_2_1, THM_3_1, BoundParams, Reference, ball_coefficient,
                     band_coefficient, require_radius)
from .errors import InputError, ScenarioError
from .gridfn import DEFAULT_PANELS, FunctionSpec, Grid, ScalarProfile, _as_profile, _describable
from .hilbert import REAL, OrthonormalFamily, basis_vector
from .scenario import BoundEntry, Scenario


def _recipe_name(bound_id: str, params: dict) -> str:
    return f"{bound_id} equality recipe at " + ", ".join(f"{k}={v!r}" for k, v in params.items())


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


def _cone_parts(bound_id: str, values: dict, grid: Grid, field: str, d: int) -> tuple:
    """The recipe's cone on the first two basis vectors, with constant profiles.  A closed
    form that overflows, divides by zero, or gives a non-finite alpha, beta or expected
    defect raises :class:`InputError` naming bound and parameters."""
    if d < 2:
        raise ScenarioError("d", "cone extremals need d >= 2")
    floats = {key: float(value) for key, value in values.items()}
    try:
        alpha, beta, rate = RECIPES[bound_id].solve(**floats)
    except OverflowError:
        raise InputError(f"{_recipe_name(bound_id, values)} overflows") from None
    except ZeroDivisionError:
        raise InputError(f"{_recipe_name(bound_id, values)} divides by zero") from None
    params = {q.key: floats[q.key] for q in BOUNDS[bound_id].params}
    expected_defect = rate * (float(grid.b) - float(grid.a))
    if not all(map(math.isfinite, (alpha, beta, expected_defect))):
        raise InputError(f"{_recipe_name(bound_id, params)} is not finite: alpha={alpha!r}, "
                         f"beta={beta!r}, expected defect {expected_defect!r}")
    if not alpha > 0.0:
        raise InputError(f"extremal component along e must be positive, got {alpha!r}")
    if beta < 0.0:
        raise InputError(f"orthogonal amplitude must be nonnegative, got {beta!r}")
    if expected_defect < 0.0:
        raise InputError("expected defect cannot be negative")
    e, u = basis_vector(field, d, 0), basis_vector(field, d, 1)
    bound_params = BoundParams(**{q.field: ScalarProfile.constant(grid, params[q.key])
                                  if q.kind == PROFILE else params[q.key]
                                  for q in BOUNDS[bound_id].params})
    return (f"extremal-{bound_id.lower()}", FunctionSpec.cone(e, u, alpha, beta),
            Reference(REF_UNIT, e=e), bound_params)


def _family_parts(bound_id: str, values: dict, grid: Grid, field: str, d: int) -> tuple:
    """f(t) = c(t) * sum(e_i)/sqrt(n) over the first n basis vectors, c >= 0 a number, profile
    spec or profile: each index's dominance gap is exactly c(t) * (1 - 1/sqrt(n))."""
    n = values["n_family"]
    if n < 1:
        raise InputError("n_family must be at least 1")
    if n > d:
        raise ScenarioError("n", f"family of {n} needs d >= {n}")
    family = OrthonormalFamily(tuple(basis_vector(field, d, i) for i in range(n)))
    profile = _as_profile(grid, values["c"], "amplitude")
    gap = ScalarProfile(grid, profile.values * (1.0 - 1.0 / math.sqrt(n)))
    return (f"extremal-family-n{n}", FunctionSpec.family_symmetric(family, profile),
            Reference(REF_FAMILY, family=family), BoundParams(dominance_profiles=(gap,) * n))


@dataclass(frozen=True)
class Recipe:
    """An equality case: its parameters' defaults (where a sweep starts), a cone's closed form
    ``solve(**values) -> (alpha, beta, defect per unit length)``, ``parts(bound_id, values,
    grid, field, d) -> (id, function spec, reference, bound params)`` and ``default_d(values)``."""

    defaults: dict
    solve: Callable[..., tuple[float, float, float]] | None = None
    parts: Callable[..., tuple] = _cone_parts
    default_d: Callable[[dict], int] = lambda values: 2


#: Every equality case, by bound.
RECIPES: dict[str, Recipe] = {
    THM_2_1: Recipe({"k": 0.5, "alpha": 1.0}, _thm_2_1),
    COR_2_2: Recipe({"rho": 0.6}, _cor_2_2),
    COR_2_3: Recipe({"m": 1.0, "M": 4.0}, _cor_2_3),
    COR_2_4: Recipe({"r": 0.5}, _cor_2_4),
    COR_2_5: Recipe({"m": 1.0, "M": 4.0}, _cor_2_5),
    THM_3_1: Recipe({"n_family": 2, "c": 1.0}, parts=_family_parts,
                    default_d=lambda values: max(values["n_family"], 2)),
}


def _recipe_values(bound_id: str, params: dict) -> dict:
    """``params`` over the recipe's defaults.  A parameter the bound reads from a file must
    be given; one the recipe does not read raises :class:`InputError`."""
    recipe = RECIPES[bound_id]
    unread = [key for key in params if key not in recipe.defaults]
    if unread:
        raise InputError(f"{bound_id} equality recipe reads {', '.join(recipe.defaults)}, "
                         f"not {', '.join(unread)}")
    for q in BOUNDS[bound_id].params:
        if q.key in recipe.defaults and q.key not in params:
            raise InputError(f"{bound_id} recipe needs parameter {q.key!r}")
    return {**recipe.defaults, **params}


def extremal_scenario(bound_id: str, params: dict, d: int | None = None, field: str = REAL,
                      interval: tuple[float, float] = (0.0, 1.0), n_panels: int | None = None,
                      scenario_id: str | None = None) -> Scenario:
    """A scenario realizing equality in ``bound_id`` by its ``RECIPES`` row; d defaults to
    the recipe's (2 for a cone, max(n_family, 2) for the family)."""
    if bound_id not in RECIPES:
        raise ScenarioError("bound_id", f"no extremal recipe for {bound_id!r}")
    recipe = RECIPES[bound_id]
    values = _recipe_values(bound_id, params)
    d = recipe.default_d(values) if d is None else d
    grid = Grid(interval[0], interval[1], DEFAULT_PANELS if n_panels is None else n_panels)
    if not _describable(grid.n_nodes, d):
        raise ScenarioError("d", "too large for numpy to describe an (N+1, d) array")
    sid, spec, reference, bound_params = recipe.parts(bound_id, values, grid, field, d)
    return Scenario(scenario_id or sid, field, d, grid, spec, reference,
                    (BoundEntry(bound_id, bound_params),))
