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
from typing import Union

import numpy as np

from .errors import InputError
from .gridfn import Grid, GridFunction, ScalarProfile
from .hilbert import HVector

MIDPOINT = "midpoint"
TRAPEZOID = "trapezoid"
SIMPSON = "simpson"
RULES = (MIDPOINT, TRAPEZOID, SIMPSON)

DEFAULT_RULE = SIMPSON

#: Relative roundoff floor added to every error budget (32 machine epsilons).
ROUNDOFF = 32.0 * float(np.finfo(np.float64).eps)


def panel_weights(rule: str, n_panels: int, h: float) -> np.ndarray:
    """Composite weights for ``n_panels`` uniform panels of width ``h``.

    Simpson handles an odd panel count with a 3/8 tail (still exact through
    cubics); midpoint pairs panels and uses their shared center node, falling
    back to trapezoid when the count is odd.  All weights are nonnegative.
    """
    if rule not in RULES:
        raise InputError(f"unknown quadrature rule {rule!r}")
    n = int(n_panels)
    if n < 1:
        raise InputError("need at least one panel")
    if rule == TRAPEZOID or n == 1:
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2.0
        return w
    if rule == MIDPOINT:
        if n % 2 != 0:
            return panel_weights(TRAPEZOID, n, h)
        w = np.zeros(n + 1)
        w[1::2] = 2.0 * h
        return w
    # Simpson
    if n % 2 == 0:
        w = np.full(n + 1, 2.0 * h / 3.0)
        w[1::2] = 4.0 * h / 3.0
        w[0] = w[-1] = h / 3.0
        return w
    if n == 3:
        return 3.0 * h / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    w = np.zeros(n + 1)
    w[: n - 2] += panel_weights(SIMPSON, n - 3, h)
    w[n - 3:] += panel_weights(SIMPSON, 3, h)
    return w


def _piece_bounds(n_panels: int, jumps) -> list[tuple[int, int]]:
    cuts = sorted(jumps) if jumps else []
    edges = [0] + cuts + [n_panels]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def _weighted_sum(values: np.ndarray, jumps, n_panels: int, h: float, rule: str):
    """Piecewise composite sum; ``values`` has shape (N+1,) or (N+1, d)."""
    total = None
    for lo, hi in _piece_bounds(n_panels, jumps):
        seg = values[lo: hi + 1]
        if jumps and lo in jumps:
            seg = seg.copy()
            seg[0] = jumps[lo]
        w = panel_weights(rule, hi - lo, h)
        part = w @ seg
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


def _integrate(grid: Grid, values: np.ndarray, jumps, rule: str):
    full = _weighted_sum(values, jumps, grid.n_panels, grid.step, rule)
    if grid.n_panels >= 4:
        hv, hj = _halved_samples(values, jumps)
        half = _weighted_sum(hv, hj, grid.n_panels // 2, 2.0 * grid.step, rule)
    else:
        # too coarse to halve: compare against the trapezoid evaluation instead
        half = _weighted_sum(values, jumps, grid.n_panels, grid.step, TRAPEZOID)
    diff = np.atleast_1d(full - half)
    return full, float(np.linalg.norm(diff))


def sample_integral(grid: Grid, values, rule: str = DEFAULT_RULE) -> IntegralEstimate:
    """Integrate raw node samples of a scalar (possibly signed) function."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (grid.n_nodes,):
        raise InputError(f"expected {grid.n_nodes} samples, got shape {arr.shape}")
    value, err = _integrate(grid, arr, None, rule)
    return IntegralEstimate(float(value), err)


def scalar_integral(p: ScalarProfile, rule: str = DEFAULT_RULE) -> IntegralEstimate:
    """Integrate a scalar profile over its grid."""
    value, err = _integrate(p.grid, p.values, None, rule)
    return IntegralEstimate(float(value), err)


def bochner_integral(f: GridFunction, rule: str = DEFAULT_RULE) -> IntegralEstimate:
    """Coordinate-wise integral of a vector-valued grid function."""
    value, err = _integrate(f.grid, f.values, f.jumps, rule)
    return IntegralEstimate(HVector(f.field, value), err)


def norm_integral(f: GridFunction, rule: str = DEFAULT_RULE) -> IntegralEstimate:
    """Integral of the node-wise norms t -> ||f(t)||."""
    norms = f.norms()
    jumps = None
    if f.jumps:
        jumps = {j: float(np.linalg.norm(v)) for j, v in f.jumps.items()}
    value, err = _integrate(f.grid, norms, jumps, rule)
    return IntegralEstimate(float(value), err)


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

    def __float__(self) -> float:
        return self.value


def defect(f: GridFunction, rule: str = DEFAULT_RULE) -> DefectEstimate:
    """Defect of the continuous triangle inequality for ``f``; evaluation integrates f only here.

    Nonnegative up to the combined error bar for every input: the norm is
    1-Lipschitz, so the vector integral's error estimate bounds the error in
    its norm, and a machine-roundoff floor covers the summation rounding the
    coarse/fine comparison cannot see.
    """
    ni = norm_integral(f, rule)
    bi = bochner_integral(f, rule)
    integral_norm = float(np.linalg.norm(bi.value.coords))
    roundoff = ROUNDOFF * (abs(ni.value) + integral_norm)
    return DefectEstimate(
        value=ni.value - integral_norm,
        err_est=ni.err_est + bi.err_est + roundoff,
        norm_integral=ni.value,
        norm_integral_err=ni.err_est,
        integral_norm=integral_norm,
        integral_err=bi.err_est,
        integral=bi.value,
    )
