"""Parameter sweeps over the bounds with equality recipes (table output)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import bounds as B
from .errors import InputError
from .extremal import extremal_scenario, recipe_of
from .scenario import Scenario, run

CSV_HEADER = "parameter,value,lhs,rhs,margin,extremal_gap"


@dataclass(frozen=True)
class SweepRow:
    parameter: str
    value: float
    lhs: float
    rhs: float
    margin: float
    extremal_gap: float
    verdict: str


def _sweepable(bound_id: str) -> bool:
    """Whether ``bound_id`` has a recipe that reads every parameter of the bound's file entry."""
    recipe = recipe_of(bound_id)
    return recipe is not None and all(q.key in recipe.defaults for q in B.BOUNDS[bound_id].params)


def _base_params(bound_id: str, base: Scenario | None) -> dict:
    """Recipe parameters; a profile of the base scenario contributes its first node value."""
    params = dict(recipe_of(bound_id).defaults)
    for entry in base.bounds if base is not None else ():
        if entry.bound_id == bound_id:
            for q in B.BOUNDS[bound_id].params:
                value = getattr(entry.params, q.field)
                params[q.key] = float(value.values[0]) if q.kind == B.PROFILE else value
    return params


def sweep(bound_id: str, parameter: str, start: float, stop: float, steps: int,
          base: Scenario | None = None) -> tuple[list[SweepRow], list[str]]:
    """One row per step over ``parameter``; infeasible values are skipped.

    A row's gap is the bound's margin on the step's extremal function, and so is its
    margin without a base scenario; with one, the margin columns come from the base
    function on the swept bound alone, one run per step; the base is integrated once.
    Returns (rows, warnings).
    """
    if not _sweepable(bound_id):
        raise InputError(f"no equality recipe reads every parameter of {bound_id!r}")
    keys = tuple(q.key for q in B.BOUNDS[bound_id].params)
    if parameter not in keys:
        raise InputError(f"{bound_id} sweeps over {keys}, not {parameter!r}")
    if steps < 1:
        raise InputError("steps must be >= 1")
    interval = (base.grid.a, base.grid.b) if base is not None else (0.0, 1.0)
    n_panels = base.grid.n_panels if base is not None else None
    fixed = _base_params(bound_id, base)
    warnings: list[str] = []
    rows = []
    for value in np.linspace(start, stop, steps).tolist():
        try:
            ext = extremal_scenario(bound_id, {**fixed, parameter: value}, interval=interval,
                                    n_panels=n_panels,
                                    scenario_id=f"sweep-{bound_id.lower()}-{parameter}")
        except InputError as exc:
            warnings.append(f"{parameter}={value!r} skipped: {exc}")
            continue
        judged = extremal = run(ext).results[0]
        if base is not None:
            swept = replace(base, bounds=ext.bounds)
            vars(swept)["f"] = base.f  # materialized and integrated once for every step
            judged = run(swept).results[0]
        rows.append(SweepRow(parameter, value, judged.lhs, judged.rhs, judged.margin,
                             extremal.margin, judged.verdict))
    return rows, warnings


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(f"{row.parameter},{row.value!r},{row.lhs!r},{row.rhs!r},"
                     f"{row.margin!r},{row.extremal_gap!r}")
    return "\n".join(lines) + "\n"
