"""Scenario files, scenario execution and reports.

A scenario is one complete experiment: the space (field, d), the grid, a
function specification, a reference (unit vector, orthonormal family, or a
complex direction alpha + i beta), the bounds to evaluate with their
parameters, and tolerances.  The on-disk form is JSON with top-level keys
exactly

    {id, field, d, interval, N, function, reference, bounds, tolerances}

Complex coordinates are [re, im] pairs.  Profiles are {"constant": x},
{"linear": [y0, y1]}, {"sinusoid": [c0, c1, w]} or {"samples": [...]} of
length N+1.  Reports serialize to JSON (full) and CSV (one row per bound).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import bounds as B
from .bounds import (
    BoundParams,
    BoundResult,
    HOLDS,
    HYPOTHESIS_FAILED,
    REF_DIRECTION,
    REF_FAMILY,
    REF_UNIT,
    VIOLATED,
    Reference,
)
from .errors import ParamError, RevtriError, ScenarioError
from .extremal import (
    RECIPE_BOUNDS,
    build_family_extremal,
    recipe_bound_params,
    solve_equality_params,
)
from .gridfn import (
    DEFAULT_PANELS,
    FunctionSpec,
    Grid,
    ScalarProfile,
    materialize,
    profile_of,
    require_unit,
)
from .hilbert import (
    COMPLEX,
    REAL,
    HVector,
    OrthonormalFamily,
    basis_vector,
    check_orthonormal,
)
from .quadrature import DefectEstimate, defect

TOP_KEYS = ("id", "field", "d", "interval", "N", "function", "reference", "bounds", "tolerances")

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_HYPOTHESIS_FAILED = 2
EXIT_INPUT_ERROR = 3


@dataclass(frozen=True)
class Tolerances:
    tau_hyp: float = B.DEFAULT_HYP_TOL
    tau_on: float = 1e-10
    bound_slack: float | None = None  # None: 10 x err_budget at judgment time

    def slack_for(self, err_budget: float) -> float:
        if self.bound_slack is not None:
            return self.bound_slack
        return 10.0 * err_budget


@dataclass(frozen=True, eq=False)
class BoundEntry:
    bound_id: str
    params: BoundParams


@dataclass(frozen=True, eq=False)
class Scenario:
    id: str
    field: str
    d: int
    grid: Grid
    function: FunctionSpec
    reference: Reference
    bounds: tuple[BoundEntry, ...]
    tolerances: Tolerances = Tolerances()
    provenance: dict | None = None


# --------------------------------------------------------------------------
# parsing

def _fail(path: str, message: str):
    raise ScenarioError(path, message)


def _at(path: str, fn, *args):
    """``fn(*args)``, with a toolkit error reported as a ScenarioError at ``path``."""
    try:
        return fn(*args)
    except RevtriError as exc:
        _fail(path, str(exc))


def _number(data, path: str) -> float:
    """A JSON number, finite or not; callers check finiteness."""
    if isinstance(data, bool) or not isinstance(data, (int, float)):
        _fail(path, f"expected a number, got {data!r}")
    return float(data)


def _get_number(data, path: str) -> float:
    value = _number(data, path)
    if not math.isfinite(value):
        _fail(path, f"must be finite, got {value!r}")
    return value


def _require_finite(values: np.ndarray, path: str) -> None:
    if not np.isfinite(values).all():
        _fail(path, "values must be finite")


def _parse_scalar_entry(field: str, entry, path: str) -> complex:
    if field == REAL:
        return complex(_number(entry, path), 0.0)
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        _fail(path, f"complex coordinate must be an [re, im] pair, got {entry!r}")
    return complex(_number(entry[0], path + "[0]"), _number(entry[1], path + "[1]"))


def _parse_coords(field: str, data, d: int, path: str) -> np.ndarray:
    if not isinstance(data, (list, tuple)):
        _fail(path, f"expected a coordinate list, got {data!r}")
    if len(data) != d:
        _fail(path, f"expected {d} coordinates, got {len(data)}")
    coords = [_parse_scalar_entry(field, entry, f"{path}[{i}]") for i, entry in enumerate(data)]
    arr = np.array(coords, dtype=np.complex128)
    return arr.real if field == REAL else arr


def _parse_vector(field: str, data, d: int, path: str) -> HVector:
    coords = _parse_coords(field, data, d, path)
    _require_finite(coords, path)
    return HVector(field, coords)


def _parse_vectors(field: str, data, d: int, path: str) -> tuple[HVector, ...]:
    return _parse_list(data, path, "coordinate lists",
                       lambda row, q: _parse_vector(field, row, d, q))


def _parse_profile(data, grid: Grid, path: str, nonnegative: bool = True) -> ScalarProfile:
    return _at(path, profile_of, data, grid, nonnegative)


def _parse_list(data, path: str, what: str, parse) -> tuple:
    """A nonempty list whose entries are parsed by ``parse(entry, entry_path)``."""
    if not isinstance(data, (list, tuple)) or not data:
        _fail(path, f"expected a nonempty list of {what}")
    return tuple(parse(v, f"{path}[{i}]") for i, v in enumerate(data))


_PARAM_PARSERS = {
    B.NUMBER: lambda data, grid, path: _get_number(data, path),
    B.PROFILE: _parse_profile,
    B.NUMBERS: lambda data, grid, path: _parse_list(data, path, "numbers", _get_number),
    B.PROFILES: lambda data, grid, path: _parse_list(
        data, path, "profiles", lambda p, q: _parse_profile(p, grid, q)),
}


def _check_keys(data: Mapping, allowed, required, path: str) -> None:
    extra = set(data) - set(allowed)
    if extra:
        _fail(path, f"unknown keys {sorted(extra)}; allowed: {sorted(allowed)}")
    missing = set(required) - set(data)
    if missing:
        _fail(path, f"missing keys {sorted(missing)}")


def _parse_function(data, grid: Grid, field: str, d: int, path: str) -> FunctionSpec:
    if not isinstance(data, Mapping):
        _fail(path, "function must be an object")
    variant = data.get("variant")
    if variant == "samples":
        _check_keys(data, {"variant", "values"}, {"variant", "values"}, path)
        rows = data["values"]
        if not isinstance(rows, list) or len(rows) != grid.n_nodes:
            _fail(f"{path}.values", f"need {grid.n_nodes} node values")
        values = np.stack([_parse_coords(field, row, d, f"{path}.values[{j}]")
                           for j, row in enumerate(rows)])
        _require_finite(values, f"{path}.values")
        return FunctionSpec.samples(values)
    if variant == "cone":
        _check_keys(data, {"variant", "e", "u", "alpha", "beta"},
                    {"variant", "e", "u", "alpha", "beta"}, path)
        return FunctionSpec.cone(
            _parse_vector(field, data["e"], d, f"{path}.e"),
            _parse_vector(field, data["u"], d, f"{path}.u"),
            _get_number(data["alpha"], f"{path}.alpha"),
            _get_number(data["beta"], f"{path}.beta"),
        )
    if variant == "ball_perturbation":
        _check_keys(data, {"variant", "e", "rho", "omega", "u", "v"},
                    {"variant", "e", "rho", "omega"}, path)
        u = _parse_vector(field, data["u"], d, f"{path}.u") if "u" in data else None
        v = _parse_vector(field, data["v"], d, f"{path}.v") if "v" in data else None
        return FunctionSpec.ball_perturbation(
            _parse_vector(field, data["e"], d, f"{path}.e"),
            _get_number(data["rho"], f"{path}.rho"),
            _get_number(data["omega"], f"{path}.omega"),
            u, v,
        )
    if variant == "family_symmetric":
        _check_keys(data, {"variant", "family", "c"}, {"variant", "family", "c"}, path)
        return FunctionSpec.family_symmetric(
            _parse_vectors(field, data["family"], d, f"{path}.family"),
            _parse_profile(data["c"], grid, f"{path}.c"))
    if variant == "complex_curve":
        _check_keys(data, {"variant", "r", "phi"}, {"variant", "r", "phi"}, path)
        return FunctionSpec.complex_curve(
            _parse_profile(data["r"], grid, f"{path}.r"),
            _parse_profile(data["phi"], grid, f"{path}.phi", nonnegative=False),
        )
    _fail(f"{path}.variant", f"unknown function variant {variant!r}")


def _parse_reference(data, field: str, d: int, tau_on: float, path: str) -> Reference:
    if not isinstance(data, Mapping) or len(data) != 1:
        _fail(path, "reference must be an object with exactly one of "
              f"{REF_UNIT!r}, {REF_FAMILY!r}, {REF_DIRECTION!r}")
    kind, value = next(iter(data.items()))
    if kind == REF_UNIT:
        e = _parse_vector(field, value, d, f"{path}.e")
        _at(f"{path}.e", require_unit, e, "e", tau_on)
        return Reference(REF_UNIT, e=e)
    if kind == REF_FAMILY:
        members = _parse_vectors(field, value, d, f"{path}.family")
        return Reference(REF_FAMILY, family=_at(f"{path}.family", check_orthonormal, members,
                                                tau_on))
    if kind == REF_DIRECTION:
        pair = _parse_list(value, f"{path}.alpha_beta", "numbers", _get_number)
        if len(pair) != 2:
            _fail(f"{path}.alpha_beta", "expected [alpha, beta]")
        alpha, beta = pair
        _at(f"{path}.alpha_beta", B.require_direction, alpha, beta)
        return Reference(REF_DIRECTION, alpha=alpha, beta=beta)
    _fail(path, f"unknown reference kind {kind!r}")


def _parse_bound_entry(data, grid: Grid, reference: Reference, field: str, d: int,
                       path: str) -> BoundEntry:
    if not isinstance(data, Mapping):
        _fail(path, "bound entry must be an object")
    _check_keys(data, {"bound_id", "params"}, {"bound_id", "params"}, path)
    bound_id = data["bound_id"]
    spec = B.BOUNDS.get(bound_id)
    if spec is None:
        _fail(f"{path}.bound_id", f"unknown bound id {bound_id!r}")
    raw = data["params"]
    if not isinstance(raw, Mapping):
        _fail(f"{path}.params", "params must be an object")
    if reference.kind != spec.reference:
        _fail(path, f"{bound_id} needs reference kind {spec.reference!r}")
    if spec.reference == REF_DIRECTION and (field != COMPLEX or d != 1):
        _fail(path, f"{bound_id} requires field=complex and d=1")
    p = f"{path}.params"
    keys = {q.key for q in spec.params}
    _check_keys(raw, keys, keys, p)
    params = BoundParams(**{q.field: _PARAM_PARSERS[q.kind](raw[q.key], grid, f"{p}.{q.key}")
                            for q in spec.params})
    try:
        B.validate_params(bound_id, params,
                          reference.family.n if reference.kind == REF_FAMILY else None)
    except ParamError as exc:
        _fail(f"{p}.{exc.path}", exc.reason)
    return BoundEntry(bound_id, params)


def _get_tolerance(data, path: str) -> float:
    value = _get_number(data, path)
    if value < 0.0:
        _fail(path, f"must be nonnegative, got {value!r}")
    return value


def scenario_from_dict(data, source: str = "scenario") -> Scenario:
    """Validate a scenario mapping; errors carry the offending field path."""
    if not isinstance(data, Mapping):
        _fail(source, "scenario must be a JSON object")
    _check_keys(data, TOP_KEYS, TOP_KEYS, source)
    sid = data["id"]
    if not isinstance(sid, str) or not sid:
        _fail(f"{source}.id", "must be a nonempty string")
    field = data["field"]
    if field not in (REAL, COMPLEX):
        _fail(f"{source}.field", f"must be {REAL!r} or {COMPLEX!r}, got {field!r}")
    d = data["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        _fail(f"{source}.d", f"must be a positive integer, got {d!r}")
    interval = data["interval"]
    if not isinstance(interval, (list, tuple)) or len(interval) != 2:
        _fail(f"{source}.interval", "expected [a, b]")
    a = _get_number(interval[0], f"{source}.interval[0]")
    b = _get_number(interval[1], f"{source}.interval[1]")
    n_panels = data["N"]
    if isinstance(n_panels, bool) or not isinstance(n_panels, int):
        _fail(f"{source}.N", f"must be an integer, got {n_panels!r}")
    try:
        grid = Grid(a, b, n_panels)
    except RevtriError as exc:
        _fail(f"{source}.N" if "panel" in str(exc) else f"{source}.interval", str(exc))

    tol_data = data["tolerances"]
    if not isinstance(tol_data, Mapping):
        _fail(f"{source}.tolerances", "must be an object")
    _check_keys(tol_data, {"tau_hyp", "tau_on", "bound_slack"}, set(), f"{source}.tolerances")
    tolerances = Tolerances(**{key: _get_tolerance(value, f"{source}.tolerances.{key}")
                               for key, value in tol_data.items()})

    reference = _parse_reference(data["reference"], field, d, tolerances.tau_on,
                                 f"{source}.reference")
    function = _parse_function(data["function"], grid, field, d, f"{source}.function")
    _at(f"{source}.function", materialize, function, grid, field, d, tolerances.tau_on)

    entries = _parse_list(data["bounds"], f"{source}.bounds", "bound entries",
                          lambda entry, q: _parse_bound_entry(entry, grid, reference, field, d, q))
    return Scenario(sid, field, d, grid, function, reference, entries, tolerances)


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(str(p), f"cannot read file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(p), f"invalid JSON: {exc}") from exc
    return scenario_from_dict(data, source=p.name)


# --------------------------------------------------------------------------
# serialization back to the file format

def _scalar_to_json(field: str, value) -> object:
    z = complex(value)
    return z.real if field == REAL else [z.real, z.imag]


def _vector_to_json(field: str, coords) -> list:
    return [_scalar_to_json(field, v) for v in np.asarray(coords)]


def _profile_to_json(value) -> object:
    if isinstance(value, ScalarProfile):
        return {"samples": [float(v) for v in value.values]}
    return value


def _function_to_json(spec: FunctionSpec, field: str) -> dict:
    p = spec.params
    if spec.variant == "samples":
        rows = np.asarray(p["values"])
        return {"variant": "samples",
                "values": [_vector_to_json(field, row) for row in rows]}
    if spec.variant == "cone":
        return {"variant": "cone",
                "e": _vector_to_json(field, p["e"].coords),
                "u": _vector_to_json(field, p["u"].coords),
                "alpha": p["alpha"], "beta": p["beta"]}
    if spec.variant == "ball_perturbation":
        out = {"variant": "ball_perturbation",
               "e": _vector_to_json(field, p["e"].coords),
               "rho": p["rho"], "omega": p["omega"]}
        if p.get("u") is not None:
            out["u"] = _vector_to_json(field, p["u"].coords)
        if p.get("v") is not None:
            out["v"] = _vector_to_json(field, p["v"].coords)
        return out
    if spec.variant == "family_symmetric":
        members = p["family"]
        if isinstance(members, OrthonormalFamily):
            members = members.members
        return {"variant": "family_symmetric",
                "family": [_vector_to_json(field, m.coords) for m in members],
                "c": _profile_to_json(p["c"])}
    return {"variant": "complex_curve",
            "r": _profile_to_json(p["r"]), "phi": _profile_to_json(p["phi"])}


_PARAM_TO_JSON = {
    B.NUMBER: lambda value: value,
    B.PROFILE: _profile_to_json,
    B.NUMBERS: list,
    B.PROFILES: lambda values: [_profile_to_json(p) for p in values],
}


def _params_to_json(entry: BoundEntry) -> dict:
    return {q.key: _PARAM_TO_JSON[q.kind](getattr(entry.params, q.field))
            for q in B.BOUNDS[entry.bound_id].params}


def scenario_to_dict(s: Scenario) -> dict:
    """Serialize a scenario back to its file format (reproducing dump)."""
    if s.reference.kind == REF_UNIT:
        reference = {"e": _vector_to_json(s.field, s.reference.e.coords)}
    elif s.reference.kind == REF_FAMILY:
        reference = {"family": [_vector_to_json(s.field, m.coords)
                                for m in s.reference.family.members]}
    else:
        reference = {"alpha_beta": [s.reference.alpha, s.reference.beta]}
    tol: dict = {"tau_hyp": s.tolerances.tau_hyp, "tau_on": s.tolerances.tau_on}
    if s.tolerances.bound_slack is not None:
        tol["bound_slack"] = s.tolerances.bound_slack
    return {
        "id": s.id,
        "field": s.field,
        "d": s.d,
        "interval": [s.grid.a, s.grid.b],
        "N": s.grid.n_panels,
        "function": _function_to_json(s.function, s.field),
        "reference": reference,
        "bounds": [{"bound_id": e.bound_id, "params": _params_to_json(e)} for e in s.bounds],
        "tolerances": tol,
    }


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


# --------------------------------------------------------------------------
# execution

@dataclass(frozen=True, eq=False)
class RunReport:
    scenario_id: str
    results: tuple[BoundResult, ...]
    defect: DefectEstimate
    rollup: str
    provenance: dict | None = None


def _rollup(results) -> str:
    verdicts = {r.verdict for r in results}
    if VIOLATED in verdicts:
        return VIOLATED
    if HYPOTHESIS_FAILED in verdicts:
        return HYPOTHESIS_FAILED
    return HOLDS


def run(scenario: Scenario) -> RunReport:
    """Evaluate every bound of a scenario; deterministic for fixed inputs."""
    tol = scenario.tolerances
    f = materialize(scenario.function, scenario.grid, scenario.field, scenario.d, tol.tau_on)
    results = []
    for entry in scenario.bounds:
        try:
            result = B.evaluate(f, scenario.reference, entry.params, entry.bound_id,
                                tau_hyp=tol.tau_hyp, tau_on=tol.tau_on)
        except RevtriError as exc:
            exc.args = (f"[{scenario.id}:{entry.bound_id}] {exc.args[0] if exc.args else exc}",)
            raise
        results.append(result)
    return RunReport(scenario.id, tuple(results), defect(f), _rollup(results),
                     scenario.provenance)


def exit_code(report: RunReport) -> int:
    return {HOLDS: EXIT_HOLDS, VIOLATED: EXIT_VIOLATED,
            HYPOTHESIS_FAILED: EXIT_HYPOTHESIS_FAILED}[report.rollup]


# --------------------------------------------------------------------------
# report serialization

def _hypothesis_to_dict(h) -> dict:
    out = {
        "condition_id": h.condition_id,
        "holds": h.holds,
        "worst_violation": h.worst_violation,
        "worst_node": h.worst_node,
        "tol": h.tol,
    }
    if h.sub_reports:
        out["failing_indices"] = list(h.failing_indices)
    return out


def _result_to_dict(r: BoundResult) -> dict:
    return {
        "bound_id": r.bound_id,
        "verdict": r.verdict,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "margin": r.margin,
        "err_budget": r.err_budget,
        "rhs_terms": dict(sorted(r.rhs_terms.items())),
        "hypothesis": _hypothesis_to_dict(r.hypothesis),
        "diagnostics": dict(sorted(r.diagnostics.items())),
    }


def report_to_dict(report: RunReport) -> dict:
    out = {
        "scenario_id": report.scenario_id,
        "rollup": report.rollup,
        "bounds": [_result_to_dict(r) for r in report.results],
        "integrals": {
            "norm_integral": {"value": report.defect.norm_integral,
                              "err_est": report.defect.norm_integral_err},
            "integral_norm": {"value": report.defect.integral_norm,
                              "err_est": report.defect.integral_err},
            "defect": {"value": report.defect.value, "err_est": report.defect.err_est},
        },
    }
    if report.provenance is not None:
        out["provenance"] = report.provenance
    return out


def report_to_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"

CSV_HEADER = "scenario_id,bound_id,lhs,rhs,margin,verdict,err_budget"


def report_csv_rows(report: RunReport) -> list[str]:
    return [
        f"{report.scenario_id},{r.bound_id},{r.lhs!r},{r.rhs!r},{r.margin!r},"
        f"{r.verdict},{r.err_budget!r}"
        for r in report.results
    ]


def report_to_csv(report: RunReport) -> str:
    return "\n".join([CSV_HEADER, *report_csv_rows(report)]) + "\n"


# --------------------------------------------------------------------------
# canned scenarios

def extremal_scenario(bound_id: str, params: dict, d: int = 2, field: str = REAL,
                      interval: tuple[float, float] = (0.0, 1.0),
                      n_panels: int | None = None,
                      scenario_id: str | None = None) -> Scenario:
    """A scenario realizing equality in one of the recipe bounds."""
    if bound_id not in RECIPE_BOUNDS:
        raise ScenarioError("bound_id", f"no extremal recipe for {bound_id!r}")
    if d < 2:
        raise ScenarioError("d", "cone extremals need d >= 2")
    grid = Grid(interval[0], interval[1], n_panels or DEFAULT_PANELS)
    recipe = solve_equality_params(bound_id, params, interval)
    e = basis_vector(field, d, 0)
    u = basis_vector(field, d, 1)
    spec = FunctionSpec.cone(e, u, recipe.alpha, recipe.beta)
    entry = BoundEntry(bound_id, recipe_bound_params(recipe, grid))
    sid = scenario_id or f"extremal-{bound_id.lower()}"
    return Scenario(sid, field, d, grid, spec, Reference(REF_UNIT, e=e), (entry,))


def family_extremal_scenario(n: int = 2, c=1.0, d: int | None = None, field: str = REAL,
                             interval: tuple[float, float] = (0.0, 1.0),
                             n_panels: int | None = None,
                             scenario_id: str | None = None) -> Scenario:
    """A scenario realizing equality in the family dominance bound."""
    d = d or max(n, 2)
    if n > d:
        raise ScenarioError("n", f"family of {n} needs d >= {n}")
    grid = Grid(interval[0], interval[1], n_panels or DEFAULT_PANELS)
    members = tuple(basis_vector(field, d, i) for i in range(n))
    family = check_orthonormal(members)
    profile = c if isinstance(c, ScalarProfile) else profile_of(c, grid)
    _, gaps = build_family_extremal(family, profile, grid)
    spec = FunctionSpec.family_symmetric(family, profile)
    entry = BoundEntry(B.THM_3_1, BoundParams(dominance_profiles=gaps))
    sid = scenario_id or f"extremal-family-n{n}"
    return Scenario(sid, field, d, grid, spec, Reference(REF_FAMILY, family=family), (entry,))
