"""Composite quadrature for grid functions and scalar profiles.

All rules share one weight generator, so the vector integral, the norm
integral and profile integrals use identical nonnegative weights; the
discrete analogues of the certified inequalities are then exact up to
roundoff whenever the hypotheses hold node-wise.

Functions carrying a jump on a node are integrated piecewise: the node's
stored value closes the left piece, the recorded right-limit opens the
right piece.  Error estimates come from full-grid vs half-grid comparison
(no symbolic derivatives exist for sampled data).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import InputError
from .gridfn import GROUP_ENTRIES, Grid, GridFunction, ldexp, row_norms
from .hilbert import HVector, vector_norm

TRAPEZOID = "trapezoid"
SIMPSON = "simpson"
RULES = (TRAPEZOID, SIMPSON)

DEFAULT_RULE = SIMPSON

#: Relative roundoff floor added to every error budget (32 machine epsilons).
ROUNDOFF = 32.0 * float(np.finfo(np.float64).eps)


#: Weight vectors kept, the most recently used: a grid with a jump needs about four
#: (full and half grid, and their pieces).
WEIGHT_CACHE = 8


def panel_weights(rule: str, n_panels: int, h: float) -> np.ndarray:
    """Composite weights for ``n_panels`` uniform panels of width ``h``.

    Simpson handles an odd panel count with a 3/8 tail (still exact through
    cubics).  All weights are nonnegative.
    Computed once per (rule, n_panels, h); the array is shared and read-only.
    """
    if rule not in RULES:
        raise InputError(f"unknown quadrature rule {rule!r}")
    n = int(n_panels)
    if n < 1:
        raise InputError("need at least one panel")
    return _panel_weights(rule, n, float(h).hex())


@lru_cache(maxsize=WEIGHT_CACHE)
def _panel_weights(rule: str, n: int, h_key: str) -> np.ndarray:
    # h as float.hex: h = -0.0 and 0.0 compare equal but give different weights
    h = float.fromhex(h_key)
    if rule == TRAPEZOID or n == 1:
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2.0
    elif n % 2 == 0:  # Simpson
        w = np.full(n + 1, 2.0 * h / 3.0)
        w[1::2] = 4.0 * h / 3.0
        w[0] = w[-1] = h / 3.0
    elif n == 3:
        w = 3.0 * h / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    else:
        w = np.zeros(n + 1)
        w[: n - 2] += panel_weights(SIMPSON, n - 3, h)
        w[n - 3:] += panel_weights(SIMPSON, 3, h)
    w.setflags(write=False)
    return w


def _column_sums(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The sums of each column's products with the weights ``w``, over the nodes on the
    first axis of ``values``: of shape ``values.shape[1:]``.

    Each column is one row of ``values.T``.  A group of rows, at most
    :data:`GROUP_ENTRIES` products, is multiplied into a C-ordered array and reduced in
    one call: ``np.add.reduce`` along its contiguous last axis sums each row pairwise
    over the nodes, so a group gives the bits of its columns summed one at a time.  A
    scalar function is one column, its product reduced as it is."""
    if values.ndim == 1:
        return np.add.reduce(values * w)
    columns = values.T
    rows = columns.reshape(-1, columns.shape[-1])
    step = max(1, GROUP_ENTRIES // rows.shape[1])
    sums = [np.add.reduce(np.multiply(rows[lo: lo + step], w, order="C"), axis=-1)
            for lo in range(0, len(rows), step)]
    total = sums[0] if len(sums) == 1 else np.concatenate(sums)
    return total.reshape(columns.shape[:-1]).T


def _weighted_sum(values: np.ndarray, jumps, n_panels: int, h: float, rule: str):
    """Piecewise composite sum of ``values``, whose first axis holds the N+1 nodes: (N+1,)
    for a scalar function, (N+1, d) for a vector one and (N+1, d, T) for T of them, as
    the column sums of :func:`_column_sums`.  A function with jumps is summed piece by
    piece, in node order."""
    if not jumps:
        return _column_sums(values, panel_weights(rule, n_panels, h))
    edges = [0, *sorted(jumps), n_panels]
    total = None
    for lo, hi in zip(edges, edges[1:]):
        seg = values[lo: hi + 1]
        if lo in jumps:
            seg = seg.copy(order="K")
            seg[0] = jumps[lo]
        part = _column_sums(seg, panel_weights(rule, hi - lo, h))
        total = part if total is None else total + part
    return total


@dataclass(frozen=True)
class IntegralEstimate:
    """A quadrature value with an absolute error estimate (>= 0)."""

    value: Union[HVector, float]
    err_est: float


def _halved_samples(values: np.ndarray, jumps):
    """Every-second-node data; jumps on odd nodes are dropped (conservative)."""
    half_jumps = None
    if jumps:
        kept = {j // 2: v for j, v in jumps.items() if j % 2 == 0}
        half_jumps = kept or None
    return values[::2], half_jumps


#: np.linalg.norm squares the entries: a largest magnitude below _HUGE cannot overflow
#: the sum, and one above _TINY does not underflow its square
_TINY, _HUGE = 2.0 ** -500, 2.0 ** 500


def _norm(x: np.ndarray, big=None) -> float:
    """``np.linalg.norm(x)`` (as :func:`vector_norm`), which squares the entries, without
    overflow: past the safe range ``x`` is scaled by 2**-k first, k the exponent of its
    largest magnitude ``big`` (found here unless given).  The scaling is exact and keeps
    the layout, and with it the summation order."""
    if big is None:
        big = abs(x).max()
    if not (big >= _HUGE or 0.0 < big <= _TINY):  # zero and NaN included
        return vector_norm(x)
    _, k = np.frexp(big)
    return float(np.ldexp(vector_norm(ldexp(x, -k)), k))


def _norms(rows: np.ndarray) -> list[float]:
    """``[_norm(row) for row in rows]``, the largest magnitudes found in one call."""
    return [_norm(row, big) for row, big in zip(rows, abs(rows).max(axis=-1))]


def _integrate(grid: Grid, values: np.ndarray, jumps, rule: str):
    """The weighted sums of ``values`` (nodes on the first axis, see
    :func:`_weighted_sum`) and their differences from the half-grid sums."""
    full = _weighted_sum(values, jumps, grid.n_panels, grid.step, rule)
    if grid.n_panels >= 4:
        hv, hj = _halved_samples(values, jumps)
        half = _weighted_sum(hv, hj, grid.n_panels // 2, 2.0 * grid.step, rule)
    else:
        # too coarse to halve: compare against the trapezoid evaluation instead
        half = _weighted_sum(values, jumps, grid.n_panels, grid.step, TRAPEZOID)
    return full, full - half


def sample_integral(grid: Grid, values, rule: str = DEFAULT_RULE,
                    jumps: dict | None = None) -> IntegralEstimate:
    """Integrate raw node samples of a scalar (possibly signed) function, piecewise at
    the nodes of ``jumps`` (node index -> right limit, as :class:`GridFunction` keeps them)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (grid.n_nodes,):
        raise InputError(f"expected {grid.n_nodes} samples, got shape {arr.shape}")
    value, diff = _integrate(grid, arr, jumps, rule)
    return IntegralEstimate(float(value), _norm(diff))


def _norm_jumps(jumps):
    """The norms of the right limits ``jumps``, taken as a node's norm is."""
    return {j: float(row_norms(v[None, :])[0]) for j, v in jumps.items()} if jumps else None


def bochner_integral(f: GridFunction, rule: str = DEFAULT_RULE) -> IntegralEstimate:
    """Coordinate-wise integral of a vector-valued grid function."""
    value, diff = _integrate(f.grid, f.values, f.jumps, rule)
    return IntegralEstimate(HVector(f.field, value), _norm(diff))


def norm_integral(f: GridFunction, rule: str = DEFAULT_RULE) -> IntegralEstimate:
    """Integral of the node-wise norms t -> ||f(t)||."""
    value, diff = _integrate(f.grid, f.norms(), _norm_jumps(f.jumps), rule)
    return IntegralEstimate(float(value), _norm(diff))


@dataclass(frozen=True)
class DefectEstimate:
    """The triangle-inequality defect int ||f|| dt - ||int f dt|| with error bars."""

    value: float
    err_est: float
    norm_integral: float
    norm_integral_err: float
    integral_norm: float
    integral_err: float
    integral: HVector  # int f dt


def defect(f: GridFunction, rule: str = DEFAULT_RULE) -> DefectEstimate:
    """Defect of the continuous triangle inequality for ``f``, computed once per f and
    rule and kept on f (see :meth:`GridFunction.cached`); evaluation integrates f only
    here, or in :func:`integrate_trials`, which keeps the same estimate.

    Nonnegative up to the combined error bar for every input: the norm is
    1-Lipschitz, so the vector integral's error estimate bounds the error in
    its norm, and a machine-roundoff floor covers the summation rounding the
    coarse/fine comparison cannot see.
    """
    return f.cached(("defect", rule),
                    lambda: _defects(f.field, f.grid, f.values, f.norms(), f.jumps, rule)[0])


def _defects(field: str, grid: Grid, values: np.ndarray, norms: np.ndarray, jumps,
             rule: str) -> list[DefectEstimate]:
    """The defects of one function, its node ``values`` (N+1, d), node ``norms`` (N+1,)
    and ``jumps``; or of T jump-free functions, stacked as (N+1, d, T) and (N+1, T)."""
    ni, ni_diff = _integrate(grid, norms, _norm_jumps(jumps), rule)
    bi, bi_diff = _integrate(grid, values, jumps, rule)
    d = values.shape[1]
    integrals = bi.T.reshape(-1, d)
    out = []
    # |v| is the norm of a one-entry v, as _norm gives it: sqrt(fl(v * v)) = |v|
    for norm_value, norm_err, integral, integral_norm, integral_err in zip(
            ni.reshape(-1).tolist(), np.abs(ni_diff).reshape(-1).tolist(), integrals,
            _norms(integrals),
            _norms(bi_diff.T.reshape(-1, d))):
        roundoff = ROUNDOFF * (abs(norm_value) + integral_norm)
        out.append(DefectEstimate(
            value=norm_value - integral_norm,
            err_est=norm_err + integral_err + roundoff,
            norm_integral=norm_value,
            norm_integral_err=norm_err,
            integral_norm=integral_norm,
            integral_err=integral_err,
            integral=HVector(field, integral),
        ))
    return out


def _stacked(fs) -> np.ndarray:
    """The functions' node arrays as (T, d, N+1): the stack whose rows they are, as a fuzz
    chunk builds them, else a stacked copy."""
    rows, base = [f.values.T for f in fs], fs[0].values.base
    if base is not None and base.flags.c_contiguous and base.shape == (len(fs), *rows[0].shape) \
            and all(r.base is base and _address(r) == _address(b) for r, b in zip(rows, base)):
        return base
    return rows[0][None] if len(rows) == 1 else np.stack(rows)


def _address(arr: np.ndarray) -> int:
    return arr.ctypes.data


def integrate_trials(fs, rule: str = DEFAULT_RULE) -> None:
    """Keep on each function of ``fs`` its node norms and its defect, as ``f.norms()`` and
    :func:`defect` compute them, from one pass over all of them.

    The functions share grid, field and d and have no jumps.  Their column-major node
    arrays are read as (T, d, N+1), without a copy if they are the rows of one such stack
    (see :func:`_stacked`) or one function.  Node norms a function keeps are not computed
    again.  If the pass meets overflow, an invalid operation or division by zero, nothing
    is kept, so each function's own :func:`defect` raises or warns as it would have."""
    first = fs[0]
    stack = _stacked(fs)
    kept = [f._tables.get(("norms",)) for f in fs]
    todo = [i for i, table in enumerate(kept) if table is None]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rest = stack if len(todo) == len(fs) else stack[todo]
            for i, table in zip(todo, row_norms(rest.transpose(0, 2, 1)) if todo else ()):
                kept[i] = table
            norms = np.stack(kept)
            estimates = _defects(first.field, first.grid, stack.T, norms.T, None, rule)
    except FloatingPointError:
        return
    for f, f_norms, est in zip(fs, norms, estimates):
        f.cached(("norms",), lambda: f_norms)
        f.cached(("defect", rule), lambda: est)
