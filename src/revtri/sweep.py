"""Parameter sweeps over the bounds with equality recipes (table output)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as B
from .errors import InputError
from .extremal import RECIPE_BOUNDS
from .scenario import Scenario, extremal_scenario, run

#: Recipe parameters of a sweep without a base scenario.
_BASE_DEFAULTS = {
    B.THM_2_1: {"k": 0.5, "alpha": 1.0},
    B.COR_2_2: {"rho": 0.6},
    B.COR_2_3: {"m": 1.0, "M": 4.0},
    B.COR_2_4: {"r": 0.5},
    B.COR_2_5: {"m": 1.0, "M": 4.0},
}

CSV_HEADER = "parameter,value,lhs,rhs,margin,extremal_gap"


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    lhs: float
    rhs: float
    margin: float
    extremal_gap: float | None
    verdict: str


def _base_params(bound_id: str, base: Scenario | None) -> dict:
    """Recipe parameters; a profile of the base scenario contributes its first node value."""
    params = dict(_BASE_DEFAULTS[bound_id])
    for entry in base.bounds if base is not None else ():
        if entry.bound_id == bound_id:
            for q in B.BOUNDS[bound_id].params:
                value = getattr(entry.params, q.field)
                params[q.key] = float(value.values[0]) if q.kind == B.PROFILE else value
    return params


def sweep(bound_id: str, parameter: str, start: float, stop: float, steps: int,
          base: Scenario | None = None) -> tuple[list[SweepRow], list[str]]:
    """One row per step over ``parameter``; infeasible values are skipped.

    Without a base scenario each row evaluates the bound on its own extremal
    function, so margin and gap coincide; with a base scenario the margin
    columns come from the base function, evaluated on the swept bound alone at
    the swept parameter, while the gap still comes from the extremal recipe.
    Returns (rows, warnings).
    """
    if bound_id not in RECIPE_BOUNDS:
        raise InputError(f"sweep supports bounds with equality recipes, not {bound_id!r}")
    keys = tuple(q.key for q in B.BOUNDS[bound_id].params)
    if parameter not in keys:
        raise InputError(f"{bound_id} sweeps over {keys}, not {parameter!r}")
    if steps < 1:
        raise InputError("steps must be >= 1")
    values = [float(v) for v in np.linspace(start, stop, steps)]
    interval = (base.grid.a, base.grid.b) if base is not None else (0.0, 1.0)
    n_panels = base.grid.n_panels if base is not None else None
    rows: list[SweepRow] = []
    warnings: list[str] = []
    for value in values:
        params = _base_params(bound_id, base)
        params[parameter] = value
        try:
            ext = extremal_scenario(bound_id, params, interval=interval, n_panels=n_panels,
                                    scenario_id=f"sweep-{bound_id.lower()}-{parameter}")
        except InputError as exc:
            warnings.append(f"{parameter}={value!r} skipped: {exc}")
            continue
        ext_result = run(ext).results[0]
        gap = ext_result.margin
        if base is None:
            rows.append(SweepRow(parameter, value, ext_result.lhs, ext_result.rhs,
                                 ext_result.margin, gap, ext_result.verdict))
            continue
        # only the swept bound is evaluated: the other base bounds do not enter the row
        swept = Scenario(base.id, base.field, base.d, base.grid, base.function,
                         base.reference, ext.bounds, base.tolerances)
        vars(swept)["f"] = base.f  # the function is unchanged: materialized once per sweep
        result = run(swept).results[0]
        rows.append(SweepRow(parameter, value, result.lhs, result.rhs, result.margin,
                             gap, result.verdict))
    return rows, warnings


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        gap = "" if row.extremal_gap is None else repr(row.extremal_gap)
        lines.append(f"{row.parameter},{row.value!r},{row.lhs!r},{row.rhs!r},"
                     f"{row.margin!r},{gap}")
    return "\n".join(lines) + "\n"
