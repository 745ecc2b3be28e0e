"""Sampled functions [a, b] -> K^d and scalar profiles on a uniform grid.

Almost-everywhere hypotheses are modeled as node-wise conditions: sampled
data has no null sets, so "at every grid node" is the strongest checkable
surrogate.  Grids are uniform with an even panel count (Simpson pairing).

:data:`VARIANTS` declares each function variant once; scenario parsing and
serialization and :func:`materialize` read it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Mapping, TypeVar

import numpy as np

from .errors import InfeasibilityError, InputError
from .hilbert import (
    COMPLEX,
    REAL,
    _DTYPES,
    DEFAULT_ORTHO_TOL,
    HVector,
    OrthonormalFamily,
    check_orthonormal,
    complete_orthonormal,
    gram_report,
    inner,
    norm,
)

DEFAULT_PANELS = 512

T = TypeVar("T")

#: Grids whose grid-only tables (nodes, sinusoid profiles, the fuzz trig basis) are kept,
#: each cache keeping the most recently used ones.
GRID_CACHE = 2

#: From this many columns on, ``np.linalg.norm(x, axis=1)`` sums each row pairwise.
PAIRWISE_COLUMNS = 8

#: Nodes per block of a row-norm walk: the (d, block) squares buffer of up to
#: PAIRWISE_COLUMNS - 1 columns (at most 224 KiB) stays in a core's L2 cache.
_NODE_BLOCK = 4096

#: Kinds of scenario-file values, shared by function variants and bound parameters.
NUMBER = "number"
PROFILE = "profile"
SIGNED_PROFILE = "signed profile"
VECTOR = "vector"
VECTORS = "vectors"
SAMPLES = "samples"


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] with an even number of panels ``n_panels``."""

    a: float
    b: float
    n_panels: int = DEFAULT_PANELS

    def __post_init__(self):
        if not self.b > self.a:
            raise InputError(f"interval requires b > a, got [{self.a}, {self.b}]")
        if self.n_panels < 2 or self.n_panels % 2 != 0:
            raise InputError(f"panel count must be positive and even, got {self.n_panels}")

    @property
    def step(self) -> float:
        return (self.b - self.a) / self.n_panels

    @property
    def n_nodes(self) -> int:
        return self.n_panels + 1

    @property
    def key(self) -> tuple[str, str, int]:
        """The exact values (a, b as ``float.hex``, N): the cache key of grid-only tables.

        Grids rebuilt with the same values share it.  Unlike ``==`` it tells a -0.0
        endpoint from 0.0, which ``np.linspace`` keeps in the nodes."""
        return float(self.a).hex(), float(self.b).hex(), self.n_panels

    def nodes(self) -> np.ndarray:
        """The N+1 nodes, computed once per :attr:`key`; the array is shared and read-only."""
        return grid_nodes(self.key)

    @property
    def length(self) -> float:
        return self.b - self.a


@lru_cache(maxsize=GRID_CACHE)
def grid_nodes(key: tuple[str, str, int]) -> np.ndarray:
    """The nodes of the grid with :attr:`Grid.key` ``key``, as a read-only array."""
    a, b, n_panels = key
    nodes = np.linspace(float.fromhex(a), float.fromhex(b), n_panels + 1)
    nodes.setflags(write=False)
    return nodes


@lru_cache(maxsize=GRID_CACHE)
def _sin_table(key: tuple[str, str, int], omega_key: str) -> np.ndarray:
    """sin(omega t) at the nodes t of the grid with ``key``, omega as ``float.hex``;
    read-only."""
    table = np.sin(float.fromhex(omega_key) * grid_nodes(key))
    table.setflags(write=False)
    return table


def row_norms(x) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` of an (N+1, d) array, or of the rows of a
    :class:`_Shifted` difference, bit for bit.

    Below :data:`PAIRWISE_COLUMNS` numpy sums the squares of a row in column order, in a
    loop over its d entries; for 2 to PAIRWISE_COLUMNS - 1 columns the same sums are
    taken along the node axis, a block of :data:`_NODE_BLOCK` nodes at a time: one
    (d, block) squares buffer is reused and :func:`column_norms` writes each block's
    norms into the output, so no (N+1, d) array is built.  One column has nothing to
    sum, and from PAIRWISE_COLUMNS on numpy sums pairwise: numpy is called, on the whole
    difference for a :class:`_Shifted`.  Numpy also takes the whole array if an operation
    of the walk overflows or is invalid, so its warnings or its FloatingPointError come
    in numpy's order, as if the whole array had been computed."""
    n, d = x.shape
    if not 2 <= d < PAIRWISE_COLUMNS:
        return np.linalg.norm(x, axis=1)
    column = x.column if isinstance(x, _Shifted) else lambda j, lo, hi: x[lo:hi, j]
    out = np.empty(n)
    squares = np.empty((d, min(n, _NODE_BLOCK)))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for lo in range(0, n, _NODE_BLOCK):
                hi = min(lo + _NODE_BLOCK, n)
                column_norms((column(j, lo, hi) for j in range(d)), (hi - lo, d),
                             squares[:, :hi - lo], out[lo:hi])
    except FloatingPointError:
        return np.linalg.norm(x, axis=1)
    return out


class _Shifted:
    """The rows x(t) - c of an (N+1, d) array x and a (d,) center c, or x(t) - s(t) c
    for per-node scales s; :func:`row_norms` computes them a column block at a time,
    and numpy sees the whole difference."""

    def __init__(self, x: np.ndarray, c: np.ndarray, s: np.ndarray | None = None):
        self.x, self.c, self.s, self.shape = x, c, s, x.shape

    def column(self, j: int, lo: int, hi: int) -> np.ndarray:
        if self.s is None:
            return self.x[lo:hi, j] - self.c[j]
        return self.x[lo:hi, j] - self.s[lo:hi] * self.c[j]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if self.s is None:
            return self.x - self.c[None, :]
        return self.x - self.s[:, None] * self.c[None, :]


def column_norms(columns, shape: tuple[int, int], squares: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The row norms of the ``shape`` (N+1, d) array whose columns ``columns`` yields,
    as ``np.linalg.norm(axis=1)`` computes them; written into ``out`` if given.

    For d < :data:`PAIRWISE_COLUMNS` each column is squared with numpy's formula,
    ``(c.conj() * c).real`` for complex data and ``c * c`` for real, into one row of a
    (d, N+1) table (``squares`` if given), and one reduction along the node axis sums
    the rows in order: the sums are numpy's bit for bit, and an overflow raises the
    FloatingPointError numpy raises.  A generator of columns computes each one only when
    it is squared, so no (N+1, d) array is built.  From PAIRWISE_COLUMNS columns on the
    columns are stacked and numpy is called; ``squares`` and ``out`` serve the column
    path only."""
    if shape[1] >= PAIRWISE_COLUMNS:
        return np.linalg.norm(np.column_stack(tuple(columns)), axis=1)
    if squares is None:
        squares = np.empty(shape[::-1])
    for row, c in zip(squares, columns):
        if c.dtype.kind == "c":
            row[...] = (c.conj() * c).real
        else:
            np.multiply(c, c, out=row)
    return np.sqrt(np.add.reduce(squares, axis=0, out=out), out=out)


@dataclass(frozen=True, eq=False)
class ScalarProfile:
    """Node samples of a scalar function; nonnegative unless built otherwise."""

    grid: Grid
    values: np.ndarray
    nonnegative: InitVar[bool] = True

    def __post_init__(self, nonnegative: bool):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.shape[0] != self.grid.n_nodes:
            raise InputError(
                f"profile needs {self.grid.n_nodes} node values, got shape {arr.shape}"
            )
        if nonnegative and np.any(arr < 0.0):
            j = int(np.argmin(arr))
            raise InputError(f"profile is negative at node {j}: {arr[j]!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, grid: Grid, value: float, nonnegative: bool = True) -> "ScalarProfile":
        return cls(grid, np.full(grid.n_nodes, float(value)), nonnegative)


#: The Python types a JSON number decodes to; ``bool`` subclasses ``int`` but is not one.
_JSON_NUMBERS = frozenset({float, int})
#: The Python types a JSON array decodes to, or a Python caller passes for one.
_JSON_ARRAYS = frozenset({list, tuple})


def is_number(value) -> bool:
    """Whether ``value`` is a number a scenario file may hold: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number_array(data, shape: tuple[int, ...]) -> np.ndarray | None:
    """``data``, nested lists of JSON numbers, as a float64 array of ``shape``, else None.

    One numpy conversion and C-level passes over the types of the lists and the entries;
    the type passes reject the bools, strings and None that numpy would convert.  None
    also for other number types (``np.float64``), other sequences and integers beyond the
    float range: a caller that accepts or reports those walks the entries itself.
    """
    try:
        arr = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != shape:
        return None
    level = [data]
    for _ in shape:
        if not set(map(type, level)) <= _JSON_ARRAYS:
            return None
        level = list(chain.from_iterable(level))
    return arr if set(map(type, level)) <= _JSON_NUMBERS else None


def _profile_numbers(kind: str, args, shape: tuple[int, ...]) -> np.ndarray:
    """The numbers of a ``kind`` profile spec as a float64 array of ``shape``, () or (n,).

    Bools and strings are rejected like in a scenario's node samples."""
    values = number_array(args, shape)
    if values is not None:
        return values
    if shape and (not isinstance(args, (list, tuple)) or len(args) != shape[0]):
        raise InputError(f"{kind} profile needs a list of {shape[0]} numbers")
    for i, value in enumerate(args if shape else [args]):
        if not is_number(value):
            where = f" entry {i}" if shape else ""
            raise InputError(f"{kind} profile{where} must be a number, got {value!r}")
    try:  # numbers of other types (np.float64), or an integer beyond the float range
        return np.array(args, dtype=np.float64)
    except OverflowError:
        raise InputError(f"{kind} profile values must be finite") from None


def profile_of(spec, grid: Grid, nonnegative: bool = True) -> ScalarProfile:
    """Evaluate a profile expression node-wise.

    ``spec`` is a number (constant) or a one-key mapping:
    ``{"constant": c}``, ``{"linear": [y0, y1]}``, ``{"sinusoid": [c0, c1, w]}``
    (meaning c0 + c1*sin(w*t)) or ``{"samples": [...]}`` of length N+1, holding
    numbers only (no bools or strings).  A negative node value is rejected unless
    ``nonnegative`` is False, and a non-finite one always.
    """
    if is_number(spec):
        spec = {"constant": spec}
    if not isinstance(spec, Mapping) or len(spec) != 1:
        raise InputError(f"profile spec must be a number or a one-key mapping, got {spec!r}")
    kind, args = next(iter(spec.items()))
    if kind == "constant":
        values = np.full(grid.n_nodes, _profile_numbers(kind, args, ()).item())
    elif kind == "linear":
        y0, y1 = _profile_numbers(kind, args, (2,)).tolist()
        values = y0 + (y1 - y0) * (grid.nodes() - grid.a) / grid.length
    elif kind == "sinusoid":
        c0, c1, omega = _profile_numbers(kind, args, (3,)).tolist()
        values = c0 + c1 * _sin_table(grid.key, float(omega).hex())
    elif kind == "samples":
        values = _profile_numbers(kind, args, (grid.n_nodes,))
    else:
        raise InputError(f"unknown profile kind {kind!r}")
    if not np.isfinite(values).all():
        raise InputError(f"{kind} profile values must be finite")
    return ScalarProfile(grid, values, nonnegative)


def _array_key(kind: str, arr: np.ndarray) -> tuple:
    """A cache key that tells arrays apart by dtype, shape and exact bytes (-0.0 from 0.0)."""
    return kind, arr.dtype.str, arr.shape, arr.tobytes()


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Node samples of f: [a, b] -> K^d, stored as an (N+1, d) array.

    ``jumps`` optionally maps an interior node index to the right-limit
    vector at that node, for functions with a jump sitting exactly on a
    node (``values`` holds the function's actual value there, which is
    also the left limit).  Quadrature integrates such data piecewise.

    Node tables that depend on f and a reference (norms, distances to a center,
    projections onto a reference) are computed once and kept on f: every bound of a
    run, and every step of a sweep that shares f, reads the same read-only array.
    """

    grid: Grid
    field: str
    values: np.ndarray
    jumps: dict[int, np.ndarray] | None = None

    def __post_init__(self):
        if self.field not in _DTYPES:
            raise InputError(f"unknown field {self.field!r}")
        raw = np.asarray(self.values)
        if self.field == REAL and np.iscomplexobj(raw):
            if np.any(raw.imag != 0.0):
                raise InputError("real-field grid function given complex values")
            raw = raw.real
        arr = np.array(raw, dtype=_DTYPES[self.field], copy=True)
        if arr.ndim != 2 or arr.shape[0] != self.grid.n_nodes or arr.shape[1] < 1:
            raise InputError(
                f"values must have shape ({self.grid.n_nodes}, d>=1), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if self.jumps is not None:
            fixed = {}
            for j, vec in self.jumps.items():
                if not 0 < int(j) < self.grid.n_panels:
                    raise InputError(f"jump index {j} is not an interior node")
                v = np.array(vec, dtype=_DTYPES[self.field], copy=True)
                if v.shape != (arr.shape[1],):
                    raise InputError(f"jump vector at node {j} has shape {v.shape}")
                v.setflags(write=False)
                fixed[int(j)] = v
            object.__setattr__(self, "jumps", fixed)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def cached(self, key: tuple, compute: Callable[[], T]) -> T:
        """``compute()``, computed once per ``key`` and kept on f, so it dies with f;
        an array result is made read-only.

        Only a result computed without overflow, invalid operation or division by zero
        is kept.  Otherwise it is computed again under the caller's floating-point
        settings and not kept, so ``run()``, which raises on these, raises as if no
        table had been kept, whatever was called on f before."""
        tables = self._tables
        if key not in tables:
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    value = compute()
            except FloatingPointError:
                return compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            tables[key] = value
        return tables[key]

    @cached_property
    def _tables(self) -> dict:
        return {}

    def norms(self) -> np.ndarray:
        """Node norms ||f(t_j)||, computed once per function; the array is read-only."""
        return self.cached(("norms",), lambda: row_norms(self.values))

    def distances(self, center: np.ndarray) -> np.ndarray:
        """Node distances ||f(t_j) - center||, computed once per center (keyed by its
        exact bytes); the array is read-only."""
        return self.cached(_array_key("distances", center),
                           lambda: row_norms(_Shifted(self.values, center)))

    def projections(self, refs: np.ndarray) -> np.ndarray:
        """Re<f(t_j), e> per node for a reference vector ``refs`` = e, or an (N+1, n)
        table for the n rows e_i of ``refs``; computed once per ``refs`` (keyed by its
        exact bytes) with one product; the array is read-only."""
        return self.cached(_array_key("projections", refs), lambda: np.ascontiguousarray(
            (self.values @ np.conjugate(refs.T)).real))

    def inner_with(self, e: HVector) -> np.ndarray:
        """Per-node inner products <f(t_j), e> (conjugate-linear in e)."""
        if e.field != self.field or e.d != self.d:
            raise InputError("reference vector field/dimension mismatch")
        return self.values @ np.conjugate(e.coords)

    def _merge_jumps(self, other: "GridFunction", op) -> dict[int, np.ndarray] | None:
        mine = self.jumps or {}
        theirs = other.jumps or {}
        if not mine and not theirs:
            return None
        keys = sorted(set(mine) | set(theirs))
        return {
            j: op(mine.get(j, self.values[j]), theirs.get(j, other.values[j])) for j in keys
        }

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if self.grid != other.grid or self.field != other.field or self.d != other.d:
            raise InputError("grid function mismatch in addition")
        return GridFunction(
            self.grid, self.field, self.values + other.values,
            self._merge_jumps(other, lambda a, b: a + b),
        )

    def __mul__(self, scalar) -> "GridFunction":
        if self.field == REAL and isinstance(scalar, complex):
            raise InputError("complex scalar applied to a real-field grid function")
        jumps = None
        if self.jumps:
            jumps = {j: v * scalar for j, v in self.jumps.items()}
        return GridFunction(self.grid, self.field, self.values * scalar, jumps)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    """A closed-form generator for a grid function; see :func:`materialize`."""

    variant: str
    params: dict

    def __post_init__(self):
        if self.variant not in FUNCTION_VARIANTS:
            raise InputError(
                f"unknown function variant {self.variant!r}; expected one of {FUNCTION_VARIANTS}"
            )

    @classmethod
    def samples(cls, values) -> "FunctionSpec":
        return cls("samples", {"values": values})

    @classmethod
    def cone(cls, e: HVector, u: HVector, alpha: float, beta: float) -> "FunctionSpec":
        return cls("cone", {"e": e, "u": u, "alpha": float(alpha), "beta": float(beta)})

    @classmethod
    def ball_perturbation(cls, e: HVector, rho: float, omega: float,
                          u: HVector | None = None, v: HVector | None = None) -> "FunctionSpec":
        return cls("ball_perturbation",
                   {"e": e, "rho": float(rho), "omega": float(omega), "u": u, "v": v})

    @classmethod
    def family_symmetric(cls, members, c) -> "FunctionSpec":
        return cls("family_symmetric", {"family": tuple(members), "c": c})

    @classmethod
    def complex_curve(cls, r, phi) -> "FunctionSpec":
        return cls("complex_curve", {"r": r, "phi": phi})


def require_unit(vec: HVector, name: str, tol: float) -> None:
    gap = abs(norm(vec) - 1.0)
    if gap > tol:
        raise InputError(f"{name} must be a unit vector (|norm - 1| = {gap:.3e} > {tol:g})")


def _require_orthogonal(x: HVector, y: HVector, names: str, tol: float) -> None:
    overlap = abs(inner(x, y))
    if overlap > tol:
        raise InputError(f"{names} must be orthogonal (|<x,y>| = {overlap:.3e} > {tol:g})")


def _sign_halves(grid: Grid) -> np.ndarray:
    # +1 on the first half including the midpoint node (deterministic tie-break),
    # -1 strictly after it.
    s = np.ones(grid.n_nodes)
    s[grid.n_panels // 2 + 1:] = -1.0
    return s


def _as_profile(grid: Grid, value, name: str, nonnegative: bool = True) -> ScalarProfile:
    """``value`` as a profile on ``grid``; a profile spec is evaluated there."""
    if not isinstance(value, ScalarProfile):
        return profile_of(value, grid, nonnegative)
    if value.grid != grid:
        raise InputError(f"{name} profile lives on a different grid")
    return value


def _cone(grid: Grid, field: str, d: int, ortho_tol: float,
          e: HVector, u: HVector, alpha: float, beta: float) -> GridFunction:
    if e.field != field or e.d != d or u.field != field or u.d != d:
        raise InputError("cone vectors must match the scenario field and dimension")
    require_unit(e, "cone e", ortho_tol)
    require_unit(u, "cone u", ortho_tol)
    _require_orthogonal(u, e, "cone u and e", ortho_tol)
    s = _sign_halves(grid)
    a, b = alpha * e.coords, beta * u.coords
    values = np.empty((grid.n_nodes, d), dtype=a.dtype)
    part = np.empty(grid.n_nodes, dtype=a.dtype)
    for j in range(d):   # alpha e_j + s(t) (beta u_j); one strided write per column
        np.multiply(s, b[j], out=part)
        np.add(a[j], part, out=values[:, j])
    jumps = None
    if beta != 0.0:
        jumps = {grid.n_panels // 2: alpha * e.coords - beta * u.coords}
    return GridFunction(grid, field, values, jumps)


def _ball_perturbation(grid: Grid, field: str, d: int, ortho_tol: float,
                       e: HVector, rho: float, omega: float,
                       u: HVector | None, v: HVector | None) -> GridFunction:
    if d < 3:
        raise InfeasibilityError("ball_perturbation needs d >= 3 for two orthogonal directions")
    if e.field != field or e.d != d:
        raise InputError("ball_perturbation e must match the scenario field and dimension")
    require_unit(e, "ball_perturbation e", ortho_tol)
    if u is None or v is None:
        u, v = complete_orthonormal((e,), 2)
    report = gram_report((e, u, v), ortho_tol)
    if not report.ok:
        raise InputError(
            f"ball_perturbation directions must be orthonormal with e "
            f"(worst Gram residual {report.worst_residual:.3e})"
        )
    wt = omega * grid.nodes()
    cos, sin = np.cos(wt), np.sin(wt)
    values = np.empty((grid.n_nodes, d), dtype=e.coords.dtype)
    col, part = np.empty((2, grid.n_nodes), dtype=e.coords.dtype)
    for j in range(d):   # e_j + rho (cos(wt) u_j + sin(wt) v_j); one strided write
        np.multiply(cos, u.coords[j], out=col)
        np.multiply(sin, v.coords[j], out=part)
        np.add(col, part, out=col)
        np.multiply(rho, col, out=col)
        np.add(e.coords[j], col, out=values[:, j])
    return GridFunction(grid, field, values)


def _family_symmetric(grid: Grid, field: str, d: int, ortho_tol: float,
                      family, c) -> GridFunction:
    if not isinstance(family, OrthonormalFamily):
        family = check_orthonormal(tuple(family), ortho_tol)
    if family.field != field or family.d != d:
        raise InputError("family must match the scenario field and dimension")
    c = _as_profile(grid, c, "c")
    direction = family.sum_vector().coords / np.sqrt(family.n)
    values = np.empty((grid.n_nodes, d), dtype=direction.dtype)
    for j in range(d):
        np.multiply(c.values, direction[j], out=values[:, j])
    return GridFunction(grid, field, values)


def _complex_curve(grid: Grid, field: str, d: int, ortho_tol: float, r, phi) -> GridFunction:
    if field != COMPLEX or d != 1:
        raise InfeasibilityError("complex_curve requires field=complex and d=1")
    r, phi = _as_profile(grid, r, "r"), _as_profile(grid, phi, "phi", nonnegative=False)
    values = (r.values * np.exp(1j * phi.values))[:, None]
    return GridFunction(grid, COMPLEX, values)


@dataclass(frozen=True)
class Variant:
    """A variant's file ``keys`` (key -> kind), its ``optional`` keys, and
    ``build(grid, field, d, ortho_tol, **keys)``."""

    keys: dict[str, str]
    optional: tuple[str, ...]
    build: Callable[..., GridFunction]


VARIANTS: dict[str, Variant] = {
    "samples": Variant({"values": SAMPLES}, (), lambda grid, field, d, ortho_tol, values:
                       GridFunction(grid, field, np.asarray(values))),
    "cone": Variant({"e": VECTOR, "u": VECTOR, "alpha": NUMBER, "beta": NUMBER}, (), _cone),
    "ball_perturbation": Variant(
        {"e": VECTOR, "rho": NUMBER, "omega": NUMBER, "u": VECTOR, "v": VECTOR}, ("u", "v"),
        _ball_perturbation),
    "family_symmetric": Variant({"family": VECTORS, "c": PROFILE}, (), _family_symmetric),
    "complex_curve": Variant({"r": PROFILE, "phi": SIGNED_PROFILE}, (), _complex_curve),
}

FUNCTION_VARIANTS = tuple(VARIANTS)


def materialize(spec: FunctionSpec, grid: Grid, field: str, d: int,
                ortho_tol: float = DEFAULT_ORTHO_TOL) -> GridFunction:
    """Build the grid function described by ``spec`` on ``grid``.

    Deterministic and bit-reproducible for fixed inputs.  Raises
    :class:`InputError` for violated orthogonality requirements and
    :class:`InfeasibilityError` when d is too small for the variant.
    """
    return VARIANTS[spec.variant].build(grid, field, d, ortho_tol, **spec.params)
