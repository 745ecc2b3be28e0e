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
from functools import cached_property
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
from .errors import DegeneracyError, ParamError, RevtriError, ScenarioError, quoted
from .gridfn import (
    NUMBER,
    PROFILE,
    SAMPLES,
    SIGNED_PROFILE,
    VARIANTS,
    VECTOR,
    VECTORS,
    FunctionSpec,
    Grid,
    GridFunction,
    ScalarProfile,
    is_number,
    materialize,
    number_array,
    profile_of,
    require_unit,
)
from .hilbert import (
    COMPLEX,
    DEFAULT_ORTHO_TOL,
    REAL,
    HVector,
    check_orthonormal,
)
from .quadrature import DefectEstimate, defect

TOP_KEYS = ("id", "field", "d", "interval", "N", "function", "reference", "bounds", "tolerances")

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_HYPOTHESIS_FAILED = 2
EXIT_INPUT_ERROR = 3
EXIT_CODES = {HOLDS: EXIT_HOLDS, VIOLATED: EXIT_VIOLATED,
              HYPOTHESIS_FAILED: EXIT_HYPOTHESIS_FAILED}


@dataclass(frozen=True)
class Tolerances:
    tau_hyp: float = B.DEFAULT_HYP_TOL
    tau_on: float = DEFAULT_ORTHO_TOL
    bound_slack: float | None = None  # accepted and written back; no command reads it


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

    @cached_property
    def f(self) -> GridFunction:
        """The grid function, materialized once per scenario."""
        return materialize(self.function, self.grid, self.field, self.d, self.tolerances.tau_on)


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
    if not is_number(data):
        _fail(path, f"expected a number, got {quoted(data)}")
    try:
        return float(data)
    except OverflowError:
        _fail(path, "must be finite, got an integer beyond the float range")


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
        _fail(path, f"complex coordinate must be an [re, im] pair, got {quoted(entry)}")
    return complex(_number(entry[0], path + "[0]"), _number(entry[1], path + "[1]"))


def _walk_row(field: str, data, d: int, path: str) -> np.ndarray:
    """One row of ``d`` coordinates, entry by entry; locates the first malformed entry."""
    if not isinstance(data, (list, tuple)):
        _fail(path, f"expected a coordinate list, got {quoted(data)}")
    if len(data) != d:
        _fail(path, f"expected {d} coordinates, got {len(data)}")
    coords = [_parse_scalar_entry(field, entry, f"{path}[{i}]") for i, entry in enumerate(data)]
    arr = np.array(coords, dtype=np.complex128)
    return arr.real if field == REAL else arr


def _parse_coords(field: str, data, shape: tuple[int, ...], path: str) -> np.ndarray:
    """JSON coordinates as one array of ``shape``: a row (d,) or rows (n, d), each
    coordinate a real number or, for a complex field, an [re, im] pair; checked finite.

    One numpy conversion and one type pass (:func:`number_array`).  Only when they fail
    does the row walk run, to report the malformed entry or to accept numbers of other
    types (``np.float64``)."""
    pairs = number_array(data, shape + ((2,) if field == COMPLEX else ()))
    if pairs is None:
        *rows, d = shape
        values = (np.stack([_walk_row(field, row, d, f"{path}[{j}]") for j, row in enumerate(data)])
                  if rows else _walk_row(field, data, d, path))
    else:
        # the pairs' memory is the complex array's: signed zeros survive, unlike re + 1j*im
        values = pairs.view(np.complex128).reshape(shape) if field == COMPLEX else pairs
    _require_finite(values, path)
    return values


def _parse_list(data, path: str, what: str, parse) -> tuple:
    """A nonempty list whose entries are parsed by ``parse(entry, entry_path)``."""
    if not isinstance(data, (list, tuple)) or not data:
        _fail(path, f"expected a nonempty list of {what}")
    return tuple(parse(v, f"{path}[{i}]") for i, v in enumerate(data))


def _parse_vector(data, path: str, grid: Grid, field: str, d: int) -> HVector:
    return HVector(field, _parse_coords(field, data, (d,), path))


def _parse_samples(rows, path: str, grid: Grid, field: str, d: int) -> np.ndarray:
    """N+1 coordinate rows as one read-only (N+1, d) array, column-major as
    :class:`GridFunction` keeps it."""
    if not isinstance(rows, list) or len(rows) != grid.n_nodes:
        _fail(path, f"need {grid.n_nodes} node values")
    values = np.asfortranarray(_parse_coords(field, rows, (grid.n_nodes, d), path))
    values.setflags(write=False)
    return values


#: kind -> parser(data, path, grid, field, d) for the values of a scenario file: the
#: reference, the function's keys and the bound parameters
_PARSERS = {
    NUMBER: lambda data, path, *_: _get_number(data, path),
    B.NUMBERS: lambda data, path, *_: _parse_list(data, path, "numbers", _get_number),
    PROFILE: lambda data, path, grid, *_: _at(path, profile_of, data, grid),
    SIGNED_PROFILE: lambda data, path, grid, *_: _at(path, profile_of, data, grid, False),
    B.PROFILES: lambda data, path, grid, *_: _parse_list(
        data, path, "profiles", lambda p, q: _at(q, profile_of, p, grid)),
    VECTOR: _parse_vector,
    VECTORS: lambda data, path, *space: _parse_list(
        data, path, "coordinate lists", lambda row, q: _parse_vector(row, q, *space)),
    SAMPLES: _parse_samples,
}

#: reference kind -> the kind of its value
_REFERENCE_KINDS = {REF_UNIT: VECTOR, REF_FAMILY: VECTORS, REF_DIRECTION: B.NUMBERS}


def _check_keys(data: Mapping, allowed, required, path: str) -> None:
    extra = set(data) - set(allowed)
    if extra:
        _fail(path, f"unknown keys {quoted(sorted(extra))}; allowed: {sorted(allowed)}")
    missing = set(required) - set(data)
    if missing:
        _fail(path, f"missing keys {sorted(missing)}")


def _parse_function(data, grid: Grid, field: str, d: int, path: str) -> FunctionSpec:
    if not isinstance(data, Mapping):
        _fail(path, "function must be an object")
    variant = data.get("variant")
    spec = VARIANTS.get(variant) if isinstance(variant, str) else None
    if spec is None:
        _fail(f"{path}.variant", f"unknown function variant {quoted(variant)}")
    required = set(spec.keys) - set(spec.optional)
    _check_keys(data, {"variant", *spec.keys}, {"variant", *required}, path)
    return FunctionSpec(variant, {
        key: _PARSERS[kind](data[key], f"{path}.{key}", grid, field, d) if key in data else None
        for key, kind in spec.keys.items()})


def _parse_reference(data, grid: Grid, field: str, d: int, tau_on: float,
                     path: str) -> Reference:
    if not isinstance(data, Mapping) or len(data) != 1:
        _fail(path, "reference must be an object with exactly one of "
              f"{REF_UNIT!r}, {REF_FAMILY!r}, {REF_DIRECTION!r}")
    kind, raw = next(iter(data.items()))
    if kind not in _REFERENCE_KINDS:
        _fail(path, f"unknown reference kind {quoted(kind)}")
    where = f"{path}.{kind}"
    value = _PARSERS[_REFERENCE_KINDS[kind]](raw, where, grid, field, d)
    if kind == REF_UNIT:
        _at(where, require_unit, value, "e", tau_on)
        return Reference(REF_UNIT, e=value)
    if kind == REF_FAMILY:
        return Reference(REF_FAMILY, family=_at(where, check_orthonormal, value, tau_on))
    if len(value) != 2:
        _fail(where, "expected [alpha, beta]")
    _at(where, B.require_direction, *value)
    return Reference(REF_DIRECTION, alpha=value[0], beta=value[1])


def _parse_bound_entry(data, grid: Grid, reference: Reference, field: str, d: int,
                       path: str) -> BoundEntry:
    if not isinstance(data, Mapping):
        _fail(path, "bound entry must be an object")
    _check_keys(data, {"bound_id", "params"}, {"bound_id", "params"}, path)
    bound_id = data["bound_id"]
    spec = B.BOUNDS.get(bound_id) if isinstance(bound_id, str) else None
    if spec is None:
        _fail(f"{path}.bound_id", f"unknown bound id {quoted(bound_id)}")
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
    params = BoundParams(**{q.field: _PARSERS[q.kind](raw[q.key], f"{p}.{q.key}", grid, field, d)
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
    """Validate a scenario mapping; errors carry the offending field path.

    f is built under the floating-point guard of :func:`run`: overflow, an invalid
    operation or a division by zero there is an error at ``<source>.function``, so no
    node is NaN.  The rest of the parse ignores numpy's floating-point warnings, since
    every value it computes is checked (finite, in range, unit, orthonormal) and a bad
    one is reported as one error."""
    with np.errstate(all="ignore"):
        return _parse_scenario(data, source)


def _parse_scenario(data, source: str) -> Scenario:
    if not isinstance(data, Mapping):
        _fail(source, "scenario must be a JSON object")
    _check_keys(data, TOP_KEYS, TOP_KEYS, source)
    sid = data["id"]
    if not isinstance(sid, str) or not sid:
        _fail(f"{source}.id", "must be a nonempty string")
    field = data["field"]
    if field not in (REAL, COMPLEX):
        _fail(f"{source}.field", f"must be {REAL!r} or {COMPLEX!r}, got {quoted(field)}")
    d = data["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        _fail(f"{source}.d", f"must be a positive integer, got {quoted(d)}")
    interval = data["interval"]
    if not isinstance(interval, (list, tuple)) or len(interval) != 2:
        _fail(f"{source}.interval", "expected [a, b]")
    a = _get_number(interval[0], f"{source}.interval[0]")
    b = _get_number(interval[1], f"{source}.interval[1]")
    n_panels = data["N"]
    if isinstance(n_panels, bool) or not isinstance(n_panels, int):
        _fail(f"{source}.N", f"must be an integer, got {quoted(n_panels)}")
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

    reference = _parse_reference(data["reference"], grid, field, d, tolerances.tau_on,
                                 f"{source}.reference")
    function = _parse_function(data["function"], grid, field, d, f"{source}.function")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f = _at(f"{source}.function", materialize, function, grid, field, d,
                    tolerances.tau_on)
    except FloatingPointError as exc:
        _fail(f"{source}.function", f"floating-point {exc}")

    entries = _parse_list(data["bounds"], f"{source}.bounds", "bound entries",
                          lambda entry, q: _parse_bound_entry(entry, grid, reference, field, d, q))
    scenario = Scenario(sid, field, d, grid, function, reference, entries, tolerances)
    vars(scenario)["f"] = f  # fills the cache of Scenario.f: run() reuses the validated f
    return scenario


def load_scenario(path) -> Scenario:
    """Load and fully validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(str(p), f"cannot read file: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits or too deep
        raise ScenarioError(str(p), f"invalid JSON: {exc}") from exc
    return scenario_from_dict(data, source=p.name)


# --------------------------------------------------------------------------
# serialization back to the file format

def _coords_to_json(field: str, coords) -> np.ndarray:
    """Coordinates of any shape as one float64 array whose ``tolist()`` is their JSON:
    floats, or ``[re, im]`` pairs (a trailing axis of 2) for the complex field.  Taking
    each entry through complex128 gives the floats ``complex(v)`` gives for one number;
    float64 rows of a real field and complex128 rows are viewed, not copied."""
    z = np.asarray(coords)
    if field == REAL and z.dtype == np.float64:
        return z
    z = np.asarray(z, dtype=np.complex128)
    return z.real if field == REAL else z[..., None].view(np.float64)


def _profile_to_json(value) -> object:
    if isinstance(value, ScalarProfile):
        return {"samples": value.values}
    return value


#: kind -> serializer(value, field), the inverse of ``_PARSERS``; node samples and
#: coordinates stay arrays (see :func:`_scenario_tree`)
_TO_JSON = {
    NUMBER: lambda value, field: value,
    B.NUMBERS: lambda values, field: list(values),
    PROFILE: lambda value, field: _profile_to_json(value),
    SIGNED_PROFILE: lambda value, field: _profile_to_json(value),
    B.PROFILES: lambda values, field: [_profile_to_json(p) for p in values],
    VECTOR: lambda value, field: _coords_to_json(field, value.coords),
    VECTORS: lambda values, field: [_coords_to_json(field, m.coords) for m in values],
    SAMPLES: lambda rows, field: _coords_to_json(field, rows),
}


def _function_to_json(spec: FunctionSpec, field: str) -> dict:
    out = {"variant": spec.variant}
    for key, kind in VARIANTS[spec.variant].keys.items():
        value = spec.params.get(key)
        if value is not None:
            out[key] = _TO_JSON[kind](value, field)
    return out


def _params_to_json(entry: BoundEntry, field: str) -> dict:
    return {q.key: _TO_JSON[q.kind](getattr(entry.params, q.field), field)
            for q in B.BOUNDS[entry.bound_id].params}


def _scenario_tree(s: Scenario) -> dict:
    """The file format of a scenario as a tree whose array leaves are numpy arrays: what
    :func:`scenario_to_dict` turns into lists and :func:`save_scenario` streams."""
    ref = s.reference
    value = {REF_UNIT: ref.e, REF_FAMILY: ref.family, REF_DIRECTION: (ref.alpha, ref.beta)}
    reference = {ref.kind: _TO_JSON[_REFERENCE_KINDS[ref.kind]](value[ref.kind], s.field)}
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
        "bounds": [{"bound_id": e.bound_id, "params": _params_to_json(e, s.field)}
                   for e in s.bounds],
        "tolerances": tol,
    }


def _plain(tree):
    """``tree`` (dicts and lists) with every numpy array leaf replaced by its ``tolist()``."""
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, dict):
        return {key: _plain(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [_plain(value) for value in tree]
    return tree


def scenario_to_dict(s: Scenario) -> dict:
    """Serialize a scenario back to its file format (reproducing dump)."""
    return _plain(_scenario_tree(s))


def _floatstr(x: float) -> str:
    """The JSON text ``json.dumps`` gives one float."""
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


#: Nodes per block of a streamed scenario file's rows.
_NODE_BLOCK = 4096


def _node_blocks(n: int):
    """The (lo, hi) bounds of the blocks of :data:`_NODE_BLOCK` nodes, the last one
    partial, that cover n nodes."""
    return ((lo, min(lo + _NODE_BLOCK, n)) for lo in range(0, n, _NODE_BLOCK))


def _write_array(out, a: np.ndarray, indent: str) -> None:
    """Write ``json.dumps(a.tolist(), indent=2)`` for a nonempty float64 array of at least
    one axis, its lines indented by ``indent`` after the first, one node block of rows
    (the first axis) at a time: each block is one ``%`` template filled with the reprs
    of its floats, the text ``json.dumps`` gives every finite float."""
    inner = indent + "  "
    sep = ",\n" + inner
    row = "%s"
    if a.ndim > 1:  # the row's brackets and separators, as json.dumps lays them out
        row = json.dumps(np.zeros(a.shape[1:]).tolist(), indent=2).replace("0.0", "%s")
        row = row.replace("\n", "\n" + inner)
    out.write("[\n" + inner)
    for lo, hi in _node_blocks(len(a)):
        block = a[lo:hi]
        text = float.__repr__ if np.isfinite(block).all() else _floatstr
        out.write((sep if lo else "")
                  + sep.join([row] * (hi - lo)) % tuple(map(text, block.ravel().tolist())))
    out.write("\n" + indent + "]")


def _write_json(tree, path) -> None:
    """Write ``json.dumps(_plain(tree), sort_keys=True, indent=2) + "\\n"`` to ``path``,
    byte for byte, without building that text: the rest of the tree goes through
    ``json.dumps`` with a placeholder string per nonempty float64 array leaf, and each
    array is streamed by :func:`_write_array` at the placeholder's indentation."""
    arrays: list[np.ndarray] = []

    def leaf(obj):
        if not isinstance(obj, np.ndarray):
            return json.JSONEncoder().default(obj)  # json's TypeError
        if obj.dtype != np.float64 or obj.ndim == 0 or obj.size == 0:
            return obj.tolist()
        arrays.append(obj)
        return token

    attempt = 0
    while True:  # a string of the tree that ends like a placeholder takes another one
        token = f"revtri-array-{attempt}"
        arrays.clear()
        pieces = json.dumps(tree, sort_keys=True, indent=2, default=leaf).split(f'"{token}"')
        if len(pieces) == len(arrays) + 1:
            break
        attempt += 1
    with open(path, "w", encoding="utf-8") as out:
        for piece, a in zip(pieces, arrays):
            out.write(piece)
            line = piece[piece.rfind("\n") + 1:]
            _write_array(out, a, " " * (len(line) - len(line.lstrip(" "))))
        out.write(pieces[-1] + "\n")


def save_scenario(s: Scenario, path) -> None:
    """Write the scenario file: ``json.dumps(scenario_to_dict(s), sort_keys=True,
    indent=2)`` and a newline, with the node arrays streamed."""
    _write_json(_scenario_tree(s), path)


# --------------------------------------------------------------------------
# execution

@dataclass(frozen=True, eq=False)
class RunReport:
    scenario_id: str
    results: tuple[BoundResult, ...]
    defect: DefectEstimate
    rollup: str
    provenance: dict | None = None


def _rollup(verdicts) -> str:
    """The worst of ``verdicts``: violated, then hypothesis_failed, then holds."""
    verdicts = set(verdicts)
    if VIOLATED in verdicts:
        return VIOLATED
    if HYPOTHESIS_FAILED in verdicts:
        return HYPOTHESIS_FAILED
    return HOLDS


def run(scenario: Scenario) -> RunReport:
    """Evaluate every bound of a scenario; deterministic for fixed inputs.

    f is materialized (if the scenario has not built it yet) and integrated once for
    every bound and the report.  Overflow, invalid operations and division by zero
    raise :class:`DegeneracyError`.  The report holds numbers and strings only: its
    hypothesis reports keep no kernel, so a held report does not keep f, its node tables
    or the profiles alive; ``bounds.evaluate`` on ``scenario.f`` gives the slack profiles."""
    tol = scenario.tolerances
    stage = "function"
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f = scenario.f
            stage = "integrals"
            est = defect(f)
            results = []
            for entry in scenario.bounds:
                stage = entry.bound_id
                results.append(B.evaluate(f, scenario.reference, entry.params, entry.bound_id,
                                          tau_hyp=tol.tau_hyp,
                                          tau_on=tol.tau_on).without_kernels())
    except FloatingPointError as exc:
        raise DegeneracyError(f"[{scenario.id}:{stage}] floating-point {exc}") from None
    except RevtriError as exc:
        exc.args = (f"[{scenario.id}:{stage}] {exc.args[0] if exc.args else exc}",)
        raise
    return RunReport(scenario.id, tuple(results), est, _rollup(r.verdict for r in results),
                     scenario.provenance)


def exit_code(report: RunReport) -> int:
    return EXIT_CODES[report.rollup]


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


def report_to_csv(report: RunReport) -> str:
    """One row per bound; an id holding ``,``, ``"``, CR or LF is quoted as RFC 4180 says."""
    sid = report.scenario_id
    if any(ch in sid for ch in ',"\r\n'):
        sid = '"' + sid.replace('"', '""') + '"'
    rows = (f"{sid},{r.bound_id},{r.lhs!r},{r.rhs!r},{r.margin!r},{r.verdict},{r.err_budget!r}"
            for r in report.results)
    return "\n".join([CSV_HEADER, *rows]) + "\n"

