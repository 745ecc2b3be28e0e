"""Finite-dimensional real/complex inner-product space primitives.

The model space is K^d (K = R or C) with the standard inner product,
taken conjugate-linear in its *second* argument:

    inner(x, y) = sum_i x_i * conj(y_i)

so that for d = 1 complex, ``inner(z, w) == z * conj(w)``.  Scalars are
plain Python ``complex`` values; on real-field inputs every operation
returns an exact zero imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneracyError, InfeasibilityError, InputError, OrthonormalityError, quoted

REAL = "real"
COMPLEX = "complex"

_DTYPES = {REAL: np.float64, COMPLEX: np.complex128}

#: Default relative tolerance for orthonormality validation.  Two orders
#: above double-precision accumulation at the dimensions in scope (d <= 64).
DEFAULT_ORTHO_TOL = 1e-10

#: Pivot threshold (relative to input scale) below which orthonormalization
#: declares the family rank deficient.
RANK_TOL = 1e-12


def _coerce_coords(field: str, coords) -> np.ndarray:
    if field not in _DTYPES:
        raise InputError(f"unknown field {quoted(field)}; expected {REAL!r} or {COMPLEX!r}")
    arr = np.asarray(coords)
    if field == REAL and arr.dtype.kind == "c":
        if np.any(arr.imag != 0.0):
            raise InputError("real-field vector given coordinates with nonzero imaginary part")
        arr = arr.real
    arr = np.array(arr, dtype=_DTYPES[field], copy=True)
    if arr.ndim != 1 or arr.size < 1:
        raise InputError(f"coordinates must be a nonempty 1-D sequence, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HVector:
    """A point of K^d.  Immutable; inner-product partners must share field and d."""

    field: str
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", _coerce_coords(self.field, self.coords))

    @property
    def d(self) -> int:
        return self.coords.shape[0]

    def _check_partner(self, other: "HVector") -> None:
        if self.field != other.field:
            raise InputError(f"field mismatch: {self.field} vs {other.field}")
        if self.d != other.d:
            raise InputError(f"dimension mismatch: {self.d} vs {other.d}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HVector({self.field}, {self.coords.tolist()})"


def _vector(field: str, coords: np.ndarray) -> HVector:
    """The HVector of ``coords``, a 1-D array of the field's dtype that nothing can write,
    adopted without the copy and the checks of the constructor."""
    vector = object.__new__(HVector)
    vars(vector).update(field=field, coords=coords)
    return vector


def basis_vector(field: str, d: int, index: int) -> HVector:
    """The index-th standard basis vector of K^d."""
    if not 0 <= index < d:
        raise InputError(f"basis index {index} out of range for dimension {d}")
    coords = np.zeros(d, dtype=_DTYPES[field])
    coords[index] = 1.0
    return HVector(field, coords)


def inner(x: HVector, y: HVector) -> complex:
    """Inner product, conjugate-linear in ``y``.

    Real-field inputs yield an exact zero imaginary part.
    """
    x._check_partner(y)
    value = x.coords.dot(np.conjugate(y.coords))
    return complex(value)


def vector_norm(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))`` for a float64 or complex128 array ``x`` read as one
    vector, by numpy's own steps and so with its bits: the entries in memory order
    (``ravel(order="K")``), the sum of their squares by ``x.dot(x)`` (for complex data
    ``re.dot(re) + im.dot(im)``), then the square root; without the wrapper's checks,
    which cost more than the sum on a d-vector."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def norm(x: HVector) -> float:
    """Induced norm sqrt(Re inner(x, x))."""
    return vector_norm(x.coords)


@dataclass(frozen=True)
class GramReport:
    """Worst deviation of a vector family from orthonormality.

    ``worst_pair`` is 0-indexed; a diagonal pair (i, i) flags a norm defect,
    an off-diagonal pair a nonzero cross inner product.  ``sum_norm_gap`` is
    ``| ||sum e_i|| - sqrt(n) |``, the identity a valid family must satisfy.
    """

    ok: bool
    worst_pair: tuple[int, int]
    worst_residual: float
    sum_norm_gap: float
    tol: float


def _member_matrix(members) -> tuple[str, np.ndarray]:
    if len(members) == 0:
        raise InputError("empty vector family")
    field = members[0].field
    d = members[0].d
    for i, v in enumerate(members):
        if v.field != field or v.d != d:
            raise InputError(f"family member {i} has mismatched field or dimension")
    return field, np.stack([v.coords for v in members])


def gram_report(members, tol: float = DEFAULT_ORTHO_TOL) -> GramReport:
    """Measure how far ``members`` is from an orthonormal family."""
    return _gram(_member_matrix(members)[1], tol)


def _gram(mat: np.ndarray, tol: float) -> GramReport:
    """:func:`gram_report` of the family whose members are the rows of ``mat``."""
    n = mat.shape[0]
    gram = mat @ np.conjugate(mat.T)
    residuals = np.abs(gram - np.eye(n))
    flat = int(np.argmax(residuals))
    worst_pair = (flat // n, flat % n)
    worst = float(residuals[worst_pair])
    sum_norm_gap = abs(vector_norm(np.add.reduce(mat, axis=0)) - math.sqrt(n))
    ok = worst <= tol and sum_norm_gap <= n * tol
    return GramReport(ok, worst_pair, worst, sum_norm_gap, tol)


@dataclass(frozen=True, eq=False)
class OrthonormalFamily:
    """A validated orthonormal family e_1, ..., e_n in K^d (n <= d)."""

    members: tuple[HVector, ...]
    tol: float = DEFAULT_ORTHO_TOL

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def d(self) -> int:
        return self.members[0].d

    @property
    def field(self) -> str:
        return self.members[0].field

    def matrix(self) -> np.ndarray:
        """(n, d) array whose rows are the members, stacked once; read-only."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        mat = np.stack([v.coords for v in self.members])
        mat.setflags(write=False)
        return mat

    def sum_vector(self) -> HVector:
        return HVector(self.field, self.matrix().sum(axis=0))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return self.n


def check_orthonormal(members, tol: float = DEFAULT_ORTHO_TOL) -> OrthonormalFamily:
    """Validate a family as orthonormal within ``tol``.

    Returns the validated :class:`OrthonormalFamily`, or raises
    :class:`OrthonormalityError` carrying the worst-offending pair and its
    Gram residual.  A family larger than the ambient dimension is rejected
    outright as infeasible.
    """
    field, mat = _member_matrix(members)
    n, d = mat.shape
    if n > d:
        raise InfeasibilityError(f"no {n} orthonormal vectors exist in {field}^{d}")
    return _family(tuple(members), mat, tol)


def _family(members: tuple[HVector, ...], mat: np.ndarray, tol: float) -> OrthonormalFamily:
    """The family of ``members`` if ``mat``, a fresh array of their rows, passes the Gram
    check at ``tol``; the family keeps ``mat`` as its matrix."""
    report = _gram(mat, tol)
    if not report.ok:
        i, j = report.worst_pair
        raise OrthonormalityError(
            f"family is not orthonormal at tol {tol:g}: pair ({i}, {j}) "
            f"has Gram residual {report.worst_residual:.3e}",
            report,
        )
    mat.setflags(write=False)
    family = OrthonormalFamily(members, tol)
    vars(family)["_matrix"] = mat  # fills the cache of matrix()
    return family


def orthonormalize(members) -> OrthonormalFamily:
    """Deterministic modified Gram-Schmidt.

    Preserves the span; the output passes :func:`check_orthonormal` at
    ``DEFAULT_ORTHO_TOL``.  Raises :class:`DegeneracyError` when a pivot
    falls below ``RANK_TOL`` times the input scale (linear dependence).
    """
    return _orthonormal_rows(*_member_matrix(members))


def _orthonormal_rows(field: str, mat: np.ndarray) -> OrthonormalFamily:
    """:func:`orthonormalize` of the ``field`` vectors whose coordinates are ``mat``'s rows."""
    n, d = mat.shape
    if n > d:
        raise InfeasibilityError(f"cannot orthonormalize {n} vectors in {field}^{d}")
    scale = max(vector_norm(v) for v in mat)
    if scale == 0.0:
        raise DegeneracyError("all input vectors are zero")
    out = mat.astype(_DTYPES[field], copy=True)
    for i in range(n):
        for j in range(i):
            out[i] -= out[i].dot(np.conjugate(out[j])) * out[j]
        pivot = vector_norm(out[i])
        if pivot < RANK_TOL * scale:
            raise DegeneracyError(
                f"rank deficiency at member {i}: pivot {pivot:.3e} below {RANK_TOL:g} of input scale"
            )
        out[i] /= pivot
    out.setflags(write=False)   # before the members view its rows
    return _family(tuple(_vector(field, row) for row in out), out, DEFAULT_ORTHO_TOL)


def complete_orthonormal(base: tuple[HVector, ...], count: int) -> tuple[HVector, ...]:
    """Extend ``base`` (assumed orthonormal) by ``count`` new orthonormal directions.

    Deterministic: candidates are standard basis vectors, most orthogonal to
    ``base`` first.  Returns only the new vectors.
    """
    field, mat = _member_matrix(base)
    n, d = mat.shape
    if n + count > d:
        raise InfeasibilityError(f"cannot extend to {n + count} orthonormal vectors in dimension {d}")
    overlap = np.abs(mat).sum(axis=0)
    order = np.argsort(overlap, kind="stable")
    picked: list[HVector] = []
    for idx in order:
        if len(picked) == count:
            break
        candidate = basis_vector(field, d, int(idx))
        try:
            extended = orthonormalize(tuple(base) + tuple(picked) + (candidate,))
        except DegeneracyError:
            continue
        picked.append(extended.members[-1])
    if len(picked) < count:
        raise DegeneracyError("could not complete the family from standard basis vectors")
    return tuple(picked)
