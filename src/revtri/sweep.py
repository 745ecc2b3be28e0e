"""Parameter sweeps over the bounds with equality recipes (table output)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as B
from .errors import InputError, RevtriError
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
    extremal_gap: float
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

    A row's gap is the bound's margin on the step's extremal function, and so is its
    margin without a base scenario; with one, the margin columns come from the base
    function on the swept bound alone, one run for all steps.  Returns (rows, warnings).
    """
    if bound_id not in RECIPE_BOUNDS:
        raise InputError(f"sweep supports bounds with equality recipes, not {bound_id!r}")
    keys = tuple(q.key for q in B.BOUNDS[bound_id].params)
    if parameter not in keys:
        raise InputError(f"{bound_id} sweeps over {keys}, not {parameter!r}")
    if steps < 1:
        raise InputError("steps must be >= 1")
    interval = (base.grid.a, base.grid.b) if base is not None else (0.0, 1.0)
    n_panels = base.grid.n_panels if base is not None else None
    fixed = _base_params(bound_id, base)
    warnings: list[str] = []
    kept = []  # (value, extremal result, swept bound entry) per feasible value
    for value in np.linspace(start, stop, steps).tolist():
        try:
            ext = extremal_scenario(bound_id, {**fixed, parameter: value}, interval=interval,
                                    n_panels=n_panels,
                                    scenario_id=f"sweep-{bound_id.lower()}-{parameter}")
        except InputError as exc:
            warnings.append(f"{parameter}={value!r} skipped: {exc}")
            continue
        try:
            kept.append((value, run(ext).results[0], ext.bounds[0]))
        except RevtriError:
            _step_results(base, kept)  # step by step, an earlier base step raised first
            raise
    rows = [SweepRow(parameter, value, r.lhs, r.rhs, r.margin, ext.margin, r.verdict)
            for (value, ext, _), r in zip(kept, _step_results(base, kept))]
    return rows, warnings


def _step_results(base: Scenario | None, kept: list) -> tuple:
    """The extremal results of ``kept``, or one run of the base function on all its entries."""
    if base is None or not kept:
        return tuple(ext for _, ext, _ in kept)
    swept = Scenario(base.id, base.field, base.d, base.grid, base.function, base.reference,
                     tuple(entry for _, _, entry in kept), base.tolerances)
    vars(swept)["f"] = base.f  # the function is unchanged: materialized and integrated once
    return run(swept).results


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(f"{row.parameter},{row.value!r},{row.lhs!r},{row.rhs!r},"
                     f"{row.margin!r},{row.extremal_gap!r}")
    return "\n".join(lines) + "\n"
