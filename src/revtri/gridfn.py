"""Sampled functions [a, b] -> K^d and scalar profiles on a uniform grid.

Almost-everywhere hypotheses are modeled as node-wise conditions: sampled
data has no null sets, so "at every grid node" is the strongest checkable
surrogate.  Grids are uniform with an even panel count (Simpson pairing).

:data:`VARIANTS` declares each function variant once; scenario parsing and
serialization and :func:`materialize` read it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Mapping

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

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n_panels + 1)

    @property
    def length(self) -> float:
        return self.b - self.a


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


def profile_of(spec, grid: Grid, nonnegative: bool = True) -> ScalarProfile:
    """Evaluate a profile expression node-wise.

    ``spec`` is a number (constant) or a one-key mapping:
    ``{"constant": c}``, ``{"linear": [y0, y1]}``, ``{"sinusoid": [c0, c1, w]}``
    (meaning c0 + c1*sin(w*t)) or ``{"samples": [...]}`` of length N+1.
    A negative node value is rejected unless ``nonnegative`` is False, and a
    non-finite one always.
    """
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        spec = {"constant": spec}
    if not isinstance(spec, Mapping) or len(spec) != 1:
        raise InputError(f"profile spec must be a number or a one-key mapping, got {spec!r}")
    kind, args = next(iter(spec.items()))
    t = grid.nodes()
    if kind == "constant":
        values = np.full(grid.n_nodes, float(args))
    elif kind == "linear":
        y0, y1 = (float(v) for v in args)
        values = y0 + (y1 - y0) * (t - grid.a) / grid.length
    elif kind == "sinusoid":
        c0, c1, omega = (float(v) for v in args)
        values = c0 + c1 * np.sin(omega * t)
    elif kind == "samples":
        values = np.asarray(args, dtype=np.float64)
    else:
        raise InputError(f"unknown profile kind {kind!r}")
    if not np.isfinite(values).all():
        raise InputError(f"{kind} profile values must be finite")
    return ScalarProfile(grid, values, nonnegative)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Node samples of f: [a, b] -> K^d, stored as an (N+1, d) array.

    ``jumps`` optionally maps an interior node index to the right-limit
    vector at that node, for functions with a jump sitting exactly on a
    node (``values`` holds the function's actual value there, which is
    also the left limit).  Quadrature integrates such data piecewise.
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

    def norms(self) -> np.ndarray:
        """Node norms ||f(t_j)||, computed once per function; the array is read-only."""
        return self._norms

    @cached_property
    def _norms(self) -> np.ndarray:
        norms = np.linalg.norm(self.values, axis=1)
        norms.setflags(write=False)
        return norms

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
    values = alpha * e.coords[None, :] + s[:, None] * (beta * u.coords[None, :])
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
    t = grid.nodes()
    circle = np.cos(omega * t)[:, None] * u.coords[None, :] \
        + np.sin(omega * t)[:, None] * v.coords[None, :]
    values = e.coords[None, :] + rho * circle
    return GridFunction(grid, field, values)


def _family_symmetric(grid: Grid, field: str, d: int, ortho_tol: float,
                      family, c) -> GridFunction:
    if not isinstance(family, OrthonormalFamily):
        family = check_orthonormal(tuple(family), ortho_tol)
    if family.field != field or family.d != d:
        raise InputError("family must match the scenario field and dimension")
    c = _as_profile(grid, c, "c")
    direction = family.sum_vector().coords / np.sqrt(family.n)
    values = c.values[:, None] * direction[None, :]
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
