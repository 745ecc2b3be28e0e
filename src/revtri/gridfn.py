"""Sampled functions [a, b] -> K^d and scalar profiles on a uniform grid.

Almost-everywhere hypotheses are modeled as node-wise conditions: sampled
data has no null sets, so "at every grid node" is the strongest checkable
surrogate.  Grids are uniform with an even panel count (Simpson pairing).

:data:`VARIANTS` declares each function variant once; scenario parsing and
serialization and :func:`materialize` read it.
"""

from __future__ import annotations

import math
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

#: Products in a group of node columns that one numpy call reduces: at N = 512 a group
#: holds 31 columns, from N = 8192 on a single column.
GROUP_ENTRIES = 2 ** 14

#: Kinds of scenario-file values, shared by function variants and bound parameters.
NUMBER = "number"
PROFILE = "profile"
SIGNED_PROFILE = "signed profile"
VECTOR = "vector"
VECTORS = "vectors"
SAMPLES = "samples"


_INTP_MAX = int(np.iinfo(np.intp).max)


def _describable(n_nodes: int, d: int = 1) -> bool:
    """Whether numpy can describe an (n_nodes, d) complex128 array: its size in bytes fits
    in ``np.intp``.  For a larger one numpy raises a ValueError, not a MemoryError."""
    return n_nodes * d * 16 <= _INTP_MAX


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] with an even number of panels ``n_panels``."""

    a: float
    b: float
    n_panels: int = DEFAULT_PANELS

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InputError(f"interval must be finite, got [{self.a}, {self.b}]")
        if not self.b > self.a:
            raise InputError(f"interval requires b > a, got [{self.a}, {self.b}]")
        if self.n_panels < 2 or self.n_panels % 2 != 0:
            raise InputError(f"panel count must be positive and even, got {self.n_panels}")
        if not _describable(self.n_nodes):
            raise InputError("panel count is too large for numpy to describe N+1 nodes")

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


def _owned(arr, dtype) -> bool:
    """Whether ``arr`` can be kept as it is instead of copied: an array of ``dtype``,
    column-major as a copy would be (each column contiguous), that nothing can write,
    because neither it nor the array whose memory it views is writable (a view of any
    other buffer is copied)."""
    base = arr
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return False
        base = base.base
    return base is None and arr.dtype == dtype and arr.flags.f_contiguous


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, a fresh array that nothing else holds, made read-only, so that a
    :class:`GridFunction` or :class:`ScalarProfile` adopts it."""
    arr.setflags(write=False)
    return arr


#: A norm below 2**-511 has a square below the smallest normal float, 2**-1022: the
#: square underflowed and lost bits.
_TINY_NORM = 2.0 ** -511


def row_norms(x: np.ndarray, c: np.ndarray | None = None,
              s: np.ndarray | None = None) -> np.ndarray:
    """The norms of the rows of an (N+1, d) array x; with a (d,) center c the norms of
    the rows x(t) - c, and with per-node scales s as well, of the rows x(t) - s(t) c.
    An array of more axes holds its coordinates on the last one, like the
    (T, N+1, d) view of T stacked functions: each function gets its own norms.

    Each column is squared with numpy's formula, ``(v.conj() * v).real`` for complex
    data and ``v * v`` for real, and added to a running sum of the nodes in column
    order, so no (N+1, d) array is built.  Below 8 columns this is
    ``np.linalg.norm(x, axis=1)`` bit for bit; from 8 on numpy sums each row pairwise.

    Without a center, a function whose node norms all lie below 2**-511, so that every
    square underflowed, gets instead the norms of its values scaled by 2**-k (k the
    exponent of its largest magnitude), scaled back by 2**k.  Other functions keep the
    bits above."""
    total = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        v = x[..., j]
        if c is not None:
            v = v - (c[j] if s is None else s * c[j])
        square = v.conj() if v.dtype.kind == "c" else v.copy()   # a real conj() is a view
        square *= v
        total += square.real
        del v, square   # at most one column's temporaries are alive
    norms = np.sqrt(total, out=total)
    if c is None and norms.size and norms.min() < _TINY_NORM:
        functions = norms.reshape(-1, norms.shape[-1])   # a view, one row per function
        for i in np.flatnonzero(functions.max(axis=1) < _TINY_NORM):
            _rescale_norms(x.reshape(-1, *x.shape[-2:])[i], functions[i])
    return norms


def _rescale_norms(x: np.ndarray, norms: np.ndarray) -> None:
    """Replace the tiny row ``norms`` of one (N+1, d) function ``x`` by the norms of x
    scaled by 2**-k, scaled back by 2**k; a function of zeros keeps its zero norms."""
    big = float(abs(x).max())
    if big > 0.0:
        k = math.frexp(big)[1]
        norms[...] = np.ldexp(row_norms(ldexp(x, -k)), k)


def ldexp(x: np.ndarray, k: int) -> np.ndarray:
    """x * 2**k for a real or complex array, as a new array of the same layout; exact
    while no entry leaves the normal range (``np.ldexp`` takes real arrays only)."""
    scaled = np.empty_like(x)
    if x.dtype.kind == "c":
        scaled.real, scaled.imag = np.ldexp(x.real, k), np.ldexp(x.imag, k)
    else:
        np.ldexp(x, k, out=scaled)
    return scaled


@dataclass(frozen=True, eq=False)
class ScalarProfile:
    """Node samples of a scalar function; nonnegative unless built otherwise.

    ``values`` is kept read-only: an array that nothing can write (see :func:`_owned`)
    is adopted, any other input is copied."""

    grid: Grid
    values: np.ndarray
    nonnegative: InitVar[bool] = True

    def __post_init__(self, nonnegative: bool):
        arr = self.values
        if not _owned(arr, np.float64):
            arr = np.array(arr, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.shape[0] != self.grid.n_nodes:
            raise InputError(
                f"profile needs {self.grid.n_nodes} node values, got shape {arr.shape}"
            )
        if nonnegative and np.any(arr < 0.0):
            j = int(np.argmin(arr))
            raise InputError(f"profile is negative at node {j}: {float(arr[j])!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, grid: Grid, value: float, nonnegative: bool = True) -> "ScalarProfile":
        return cls(grid, _frozen(np.full(grid.n_nodes, float(value))), nonnegative)


#: The Python types a JSON number decodes to; ``bool`` subclasses ``int`` but is not one.
_JSON_NUMBERS = frozenset({float, int})
#: The Python types a JSON array decodes to, or a Python caller passes for one.
_JSON_ARRAYS = frozenset({list, tuple})


def is_number(value) -> bool:
    """Whether ``value`` is a number a scenario file may hold: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number_array(data, shape: tuple[int, ...]) -> np.ndarray | None:
    """``data``, nested lists of JSON numbers, as a read-only float64 array of ``shape``,
    else None.

    One pass per level checks the types of the lists and that each has the length
    ``shape`` gives it, a pass over the entries checks their types, and one
    ``np.fromiter`` converts them into memory the array owns.  The type passes reject
    the bools, strings and None that numpy would convert.  None also for other number
    types (``np.float64``), other sequences, ragged lists and integers beyond the float
    range: a caller that accepts or reports those walks the entries itself.
    """
    level = [data]
    for n in shape:
        if not set(map(type, level)) <= _JSON_ARRAYS or set(map(len, level)) != {n}:
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= _JSON_NUMBERS:
        return None
    try:
        flat = np.fromiter(level, dtype=np.float64, count=len(level))
    except OverflowError:
        return None
    return _frozen(flat).reshape(shape)


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
    return ScalarProfile(grid, _frozen(values), nonnegative)


def _array_key(kind: str, arr: np.ndarray) -> tuple:
    """A cache key that tells arrays apart by dtype, shape and exact bytes (-0.0 from 0.0)."""
    return kind, arr.dtype.str, arr.shape, arr.tobytes()


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Node samples of f: [a, b] -> K^d as an (N+1, d) array ``values``, stored
    column-major: ``values`` is the transposed view of a C-ordered (d, N+1) array, so
    the nodes of each coordinate are contiguous.

    ``jumps`` optionally maps an interior node index to the right-limit
    vector at that node, for functions with a jump sitting exactly on a
    node (``values`` holds the function's actual value there, which is
    also the left limit).  Quadrature integrates such data piecewise.

    ``values`` is kept read-only: an array that nothing can write (see :func:`_owned`),
    such as the builders hand over, is adopted; any other input is copied column-major.

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
        arr = raw if _owned(raw, _DTYPES[self.field]) else np.array(
            raw, dtype=_DTYPES[self.field], order="F", copy=True)
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
                           lambda: row_norms(self.values, center))

    def projections(self, refs: np.ndarray) -> np.ndarray:
        """Re<f(t_j), e> per node for a reference vector ``refs`` = e, or an (N+1, n)
        table for the n rows e_i of ``refs``; computed once per ``refs`` (keyed by its
        exact bytes); the array is read-only.  The terms Re(f_k(t) conj(e_k)) of the
        columns k are summed over k in column order, starting from 0.0, as
        :func:`row_norms` adds squares.  One ``np.add.reduce`` over the column axis adds
        the first group of columns (at most :data:`GROUP_ENTRIES` terms) in that order;
        only when the columns exceed one group does a running sum take the rest."""
        def table():
            rows = np.conjugate(np.atleast_2d(refs))
            columns = self.values.T
            n = self.grid.n_nodes
            step = max(1, GROUP_ENTRIES // n)
            total = np.empty((len(rows), n))
            for out, e in zip(total, rows):
                for lo in range(0, len(e), step):
                    terms = (e[lo: lo + step, None] * columns[lo: lo + step]).real
                    if lo == 0:
                        np.add.reduce(terms, axis=0, initial=0.0, out=out)
                    else:
                        for t in terms:
                            out += t
            return total[0] if refs.ndim == 1 else total.T
        return self.cached(_array_key("projections", refs), table)


@dataclass(frozen=True, eq=False)
class FunctionSpec:
    """A closed-form generator for a grid function; see :func:`materialize`."""

    variant: str
    params: dict

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(
                f"unknown function variant {self.variant!r}; expected one of {tuple(VARIANTS)}"
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
        # an OrthonormalFamily is kept, so that materializing need not validate it again
        family = members if isinstance(members, OrthonormalFamily) else tuple(members)
        return cls("family_symmetric", {"family": family, "c": c})

    @classmethod
    def complex_curve(cls, r, phi) -> "FunctionSpec":
        return cls("complex_curve", {"r": r, "phi": phi})


def require_unit(vec: HVector, name: str, tol: float) -> None:
    gap = abs(norm(vec) - 1.0)
    if not gap <= tol:
        raise InputError(f"{name} must be a unit vector (|norm - 1| = {gap:.3e} > {tol:g})")


def _require_real_orthogonal(x: HVector, y: HVector, names: str, tol: float) -> None:
    """Re<x, y> = 0 within ``tol``: for real vectors, <x, y> = 0."""
    overlap = abs(inner(x, y).real)
    if not overlap <= tol:
        form = "|<x,y>|" if x.field == REAL else "|Re<x,y>|"
        raise InputError(f"{names} must be orthogonal ({form} = {overlap:.3e} > {tol:g})")


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
    # ||alpha e + s beta u||^2 = alpha^2 + beta^2 + 2 s alpha beta Re<u, e> is all the
    # cone's equality uses, so a complex u needs Re<u, e> = 0 only (u = i e when d = 1)
    _require_real_orthogonal(u, e, "cone u and e", ortho_tol)
    a, b = alpha * e.coords, beta * u.coords
    n, mid = grid.n_nodes, grid.n_panels // 2   # s(t) = +1 through the midpoint node, then -1
    rows = a + np.array([[1.0], [-1.0]]) * b   # alpha e + s (beta u) for s = +1, -1
    columns = np.repeat(rows.T, (mid + 1, n - mid - 1), axis=1)
    # the right limit is a - b, not rows[1]: complex a + (-1)b can differ in a zero's sign
    jumps = {mid: a - b} if beta != 0.0 else None
    return GridFunction(grid, field, _frozen(columns).T, jumps)


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
    n = grid.n_nodes
    wt = omega * grid.nodes()
    spare = np.empty(n, dtype=e.coords.dtype)   # cos(wt), then the last sin(wt) v_j
    cos = np.cos(wt, out=spare.view(np.float64)[:n])
    sin = np.sin(wt, out=wt)
    columns = np.empty((d, n), dtype=e.coords.dtype)
    # each sin(wt) v_j goes to the next column before that one is filled, the last over cos
    parts = chain(columns[1:], [spare])
    for col, part, e_j, u_j, v_j in zip(columns, parts, e.coords, u.coords, v.coords):
        np.multiply(cos, u_j, out=col)   # e_j + rho (cos(wt) u_j + sin(wt) v_j)
        np.multiply(sin, v_j, out=part)
        np.add(col, part, out=col)
        np.multiply(rho, col, out=col)
        np.add(e_j, col, out=col)
    return GridFunction(grid, field, _frozen(columns).T)


def _family_symmetric(grid: Grid, field: str, d: int, ortho_tol: float,
                      family, c) -> GridFunction:
    if not isinstance(family, OrthonormalFamily) or family.tol > ortho_tol:
        family = check_orthonormal(tuple(family), ortho_tol)
    if family.field != field or family.d != d:
        raise InputError("family must match the scenario field and dimension")
    c = _as_profile(grid, c, "c")
    direction = family.sum_vector().coords / np.sqrt(family.n)
    return GridFunction(grid, field, _frozen(c.values * direction[:, None]).T)


def _complex_curve(grid: Grid, field: str, d: int, ortho_tol: float, r, phi) -> GridFunction:
    if field != COMPLEX or d != 1:
        raise InfeasibilityError("complex_curve requires field=complex and d=1")
    r, phi = _as_profile(grid, r, "r"), _as_profile(grid, phi, "phi", nonnegative=False)
    values = np.empty((grid.n_nodes, 1), dtype=np.complex128)
    z = values[:, 0]   # r(t) exp(i phi(t)), built in the contiguous output column
    np.multiply(1j, phi.values, out=z)
    np.exp(z, out=z)
    np.multiply(r.values, z, out=z)
    return GridFunction(grid, COMPLEX, _frozen(values))


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


def materialize(spec: FunctionSpec, grid: Grid, field: str, d: int,
                ortho_tol: float = DEFAULT_ORTHO_TOL) -> GridFunction:
    """Build the grid function described by ``spec`` on ``grid``.

    Deterministic and bit-reproducible for fixed inputs.  Raises
    :class:`InputError` for violated orthogonality requirements and
    :class:`InfeasibilityError` when d is too small for the variant.
    """
    return VARIANTS[spec.variant].build(grid, field, d, ortho_tol, **spec.params)
