"""Grid-only tables are computed once per grid and shared: the nodes, the quadrature
weights and the fuzz trig basis are bit-identical to a fresh computation, read-only,
keyed on the grid's exact values and kept for a fixed number of grids."""

from __future__ import annotations

import math

import numpy as np
import pytest

from revtri import bounds as B
from revtri.fuzz import MAX_HARMONICS, _Chunk, _trig_table, fuzz, trial_rng
from revtri.gridfn import GRID_CACHE, Grid, grid_nodes
from revtri.hilbert import COMPLEX, REAL
from revtri.quadrature import RULES, SIMPSON, TRAPEZOID, _panel_weights, panel_weights

SIZES = (2, 4, 6, 8, 512, 8192)
#: odd piece lengths come from a jump on a node; 1 and 3 are Simpson's special cases
PIECES = (1, 3, 5, 7, 9, 255, 4095)
INTERVALS = ((0.0, 1.0), (-1.0, 2.5), (1e-3, 7.0))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh_weights(rule: str, n: int, h: float) -> np.ndarray:
    """The weights computed from scratch, without any cache (the reference)."""
    if rule == TRAPEZOID or n == 1:
        w = np.full(n + 1, h)
        w[0] = w[-1] = h / 2.0
        return w
    if n % 2 == 0:
        w = np.full(n + 1, 2.0 * h / 3.0)
        w[1::2] = 4.0 * h / 3.0
        w[0] = w[-1] = h / 3.0
        return w
    if n == 3:
        return 3.0 * h / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    w = np.zeros(n + 1)
    w[: n - 2] += _fresh_weights(SIMPSON, n - 3, h)
    w[n - 3:] += _fresh_weights(SIMPSON, 3, h)
    return w


def _old_trig_path(rng, grid: Grid, d: int, field: str) -> np.ndarray:
    """The path computed from a phase table of ``n_modes`` columns (the reference)."""
    t = (np.linspace(grid.a, grid.b, grid.n_panels + 1) - grid.a) / grid.length
    n_modes = int(rng.integers(1, MAX_HARMONICS + 1))
    ks = np.arange(1, n_modes + 1)
    decay = 1.0 / ks
    draw = (lambda shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        if field == COMPLEX else rng.standard_normal
    a = draw((n_modes, d)) * decay[:, None]
    b = draw((n_modes, d)) * decay[:, None]
    c0 = draw((d,))
    phases = 2.0 * math.pi * np.outer(t, ks)
    return c0[None, :] + np.cos(phases) @ a + np.sin(phases) @ b


# --------------------------------------------------------------------------
# bit-identical to a fresh computation

@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("n_panels", SIZES)
def test_cached_nodes_match_linspace(n_panels, interval):
    grid = Grid(interval[0], interval[1], n_panels)
    fresh = np.linspace(interval[0], interval[1], n_panels + 1)
    assert _same_bits(grid.nodes(), fresh)
    again = Grid(interval[0], interval[1], n_panels).nodes()
    assert again is grid.nodes()
    assert _same_bits(again, fresh)


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("n", SIZES + PIECES)
def test_cached_weights_match_fresh(rule, n):
    for h in (1.0 / n, 2.0 / n, 0.1, 3.5 / n):
        w = panel_weights(rule, n, h)
        assert _same_bits(w, _fresh_weights(rule, n, h))
        assert panel_weights(rule, n, h) is w


@pytest.mark.parametrize("n_modes", range(1, MAX_HARMONICS + 1))
@pytest.mark.parametrize("n_panels", SIZES)
def test_trig_columns_and_products_match_direct_formula(n_panels, n_modes, rng):
    grid = Grid(0.0, 1.0, n_panels)
    cos, sin = _trig_table(grid.key)
    assert cos.shape == sin.shape == (n_panels + 1, MAX_HARMONICS)
    t = (np.linspace(0.0, 1.0, n_panels + 1) - grid.a) / grid.length
    phases = 2.0 * math.pi * np.outer(t, np.arange(1, n_modes + 1))
    c, s = np.cos(phases), np.sin(phases)
    assert _same_bits(cos[:, :n_modes], c) and _same_bits(sin[:, :n_modes], s)
    for d in (1, 4, 8):
        for coeffs in (rng.standard_normal((n_modes, d)),
                       rng.standard_normal((n_modes, d)) + 1j * rng.standard_normal((n_modes, d))):
            assert _same_bits(cos[:, :n_modes] @ coeffs, c @ coeffs)
            assert _same_bits(sin[:, :n_modes] @ coeffs, s @ coeffs)


@pytest.mark.parametrize("field", (REAL, COMPLEX))
@pytest.mark.parametrize("interval", INTERVALS)
def test_trig_path_matches_old_path(interval, field):
    # the paths of 40 trials drawn as one chunk, each with the bits of its own
    grid = Grid(interval[0], interval[1], 64)
    for d in (1, 4, 8):
        chunk = _Chunk(trial_rng, 7, range(40), grid, field, d, 1)
        chunk.draw(lambda rng: (chunk.path(rng),))
        paths, = chunk.paths()
        for trial, got in enumerate(paths):
            assert _same_bits(got, _old_trig_path(trial_rng(7, trial), grid, d, field))


# --------------------------------------------------------------------------
# shared, so read-only; keyed on exact values

def test_cached_tables_are_read_only():
    grid = Grid(0.0, 1.0, 16)
    arrays = [grid.nodes(), panel_weights(SIMPSON, 16, grid.step),
              panel_weights(TRAPEZOID, 5, grid.step), *_trig_table(grid.key)]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("first, second", ((-0.0, 0.0), (0.0, -0.0)))
def test_signed_zero_grids_keep_their_own_nodes(first, second):
    """The two grids compare equal, yet their last node differs in its sign bit."""
    assert Grid(-1.0, first, 4) == Grid(-1.0, second, 4)
    for b in (first, second, first):
        nodes = Grid(-1.0, b, 4).nodes()
        assert _same_bits(nodes, np.linspace(-1.0, b, 5))
        assert math.copysign(1.0, nodes[-1]) == math.copysign(1.0, b)
    for h in (first, second):
        assert _same_bits(panel_weights(TRAPEZOID, 2, h), _fresh_weights(TRAPEZOID, 2, h))


# --------------------------------------------------------------------------
# computed once per grid, for a bounded number of grids

def test_campaign_computes_trig_table_once_per_grid():
    _trig_table.cache_clear()
    for n_panels in (64, 32):
        for bound_id in B.BOUNDS:
            fuzz(bound_id, 5, seed=3, n_panels=n_panels)
    info = _trig_table.cache_info()
    assert info.misses == 2
    assert info.hits > 17 * 5


def test_caches_stay_within_their_size():
    for n_panels in (4, 8, 12, 16, 20):
        grid = Grid(0.0, 1.0, n_panels)
        grid.nodes()
        _trig_table(grid.key)
        for rule in RULES:
            panel_weights(rule, n_panels, grid.step)
            panel_weights(rule, n_panels // 2, 2.0 * grid.step)
    for cached in (grid_nodes, _trig_table):
        assert cached.cache_info().maxsize == GRID_CACHE
        assert cached.cache_info().currsize <= GRID_CACHE
    info = _panel_weights.cache_info()
    assert info.currsize <= info.maxsize
