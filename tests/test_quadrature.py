from __future__ import annotations

import math

import numpy as np
import pytest

from revtri import (
    REAL,
    SIMPSON,
    TRAPEZOID,
    FunctionSpec,
    Grid,
    GridFunction,
    ScalarProfile,
    basis_vector,
    bochner_integral,
    defect,
    materialize,
    norm_integral,
    profile_of,
)
from revtri.quadrature import panel_weights, sample_integral

RULES = (TRAPEZOID, SIMPSON)


def circle_function(grid: Grid) -> GridFunction:
    t = grid.nodes()
    return GridFunction(grid, REAL, np.stack([np.cos(t), np.sin(t)], axis=1))


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("n_panels", [2, 3, 4, 5, 7, 64, 511, 512])
def test_weights_nonnegative_and_sum_to_length(rule, n_panels):
    h = 0.125
    w = panel_weights(rule, n_panels, h)
    assert w.shape == (n_panels + 1,)
    assert np.all(w >= 0.0)
    assert np.sum(w) == pytest.approx(n_panels * h, rel=1e-13)


def test_bochner_constant(unit_grid):
    e = basis_vector(REAL, 3, 1)
    f = GridFunction(unit_grid, REAL, np.tile(e.coords, (unit_grid.n_nodes, 1)))
    est = bochner_integral(f)
    assert np.allclose(est.value.coords, e.coords)
    assert est.err_est == pytest.approx(0.0, abs=1e-15)


def test_bochner_circle_quarter_turn():
    grid = Grid(0.0, math.pi / 2, 512)
    est = bochner_integral(circle_function(grid), SIMPSON)
    # antiderivative (sin t, -cos t): integral is (1, 1)
    assert np.max(np.abs(est.value.coords - 1.0)) < 1e-10


def test_simpson_exact_for_cubic(unit_grid):
    t = unit_grid.nodes()
    f = GridFunction(unit_grid, REAL, np.stack([t ** 3, np.zeros_like(t)], axis=1))
    est = bochner_integral(f, SIMPSON)
    assert est.value.coords[0] == pytest.approx(0.25, rel=1e-14)
    assert est.value.coords[1] == 0.0


def test_norm_integral_constant_unit(unit_grid):
    e = basis_vector(REAL, 2, 0)
    f = GridFunction(unit_grid, REAL, np.tile(e.coords, (unit_grid.n_nodes, 1)))
    assert norm_integral(f).value == pytest.approx(1.0, rel=1e-14)


def test_norm_integral_unit_speed_curve():
    grid = Grid(0.0, math.pi, 512)
    est = norm_integral(circle_function(grid))
    assert est.value == pytest.approx(math.pi, abs=1e-10)


def test_norm_integral_cone(unit_grid):
    e = basis_vector(REAL, 2, 0)
    u = basis_vector(REAL, 2, 1)
    f = materialize(FunctionSpec.cone(e, u, 1.6, 1.2), unit_grid, REAL, 2)
    assert norm_integral(f).value == pytest.approx(2.0, abs=1e-13)


def test_scalar_integral_examples(unit_grid):
    zero = ScalarProfile.constant(unit_grid, 0.0)
    assert sample_integral(zero.grid, zero.values).value == 0.0
    const = ScalarProfile.constant(unit_grid, 0.45)
    assert sample_integral(const.grid, const.values).value == pytest.approx(0.45)
    p = profile_of({"linear": [1.0, 4.0]}, unit_grid)
    assert sample_integral(p.grid, p.values).value == pytest.approx(2.5, rel=1e-14)


def test_defect_constant_function(unit_grid):
    e = basis_vector(REAL, 2, 0)
    f = GridFunction(unit_grid, REAL, np.tile(e.coords, (unit_grid.n_nodes, 1)))
    est = defect(f)
    assert est.value == pytest.approx(0.0, abs=1e-14)
    assert est.value >= -est.err_est


def test_defect_half_circle():
    grid = Grid(0.0, math.pi, 512)
    est = defect(circle_function(grid))
    # integral is (0, 2), norms are identically 1
    assert est.value == pytest.approx(math.pi - 2.0, abs=1e-8)


def test_defect_cone(unit_grid):
    e = basis_vector(REAL, 2, 0)
    u = basis_vector(REAL, 2, 1)
    f = materialize(FunctionSpec.cone(e, u, 0.64, 0.48), unit_grid, REAL, 2)
    est = defect(f)
    assert est.norm_integral == pytest.approx(0.8, abs=1e-13)
    assert est.integral_norm == pytest.approx(0.64, abs=1e-13)
    assert est.value == pytest.approx(0.16, abs=1e-12)


def _order(rule: str, panel_counts) -> float:
    errors = []
    for n in panel_counts:
        grid = Grid(0.0, math.pi / 2, n)
        est = bochner_integral(circle_function(grid), rule)
        errors.append(float(np.linalg.norm(est.value.coords - 1.0)))
    rates = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    return min(rates)


def test_simpson_convergence_order():
    assert _order(SIMPSON, [64, 128, 256, 512]) >= 3.9


def test_trapezoid_convergence_order():
    assert _order(TRAPEZOID, [64, 128, 256, 512]) >= 1.9


def test_rules_agree_within_error_estimates():
    grid = Grid(0.0, math.pi / 2, 128)
    f = circle_function(grid)
    estimates = {rule: bochner_integral(f, rule) for rule in RULES}
    for r1 in RULES:
        for r2 in RULES:
            gap = np.linalg.norm(estimates[r1].value.coords - estimates[r2].value.coords)
            assert gap <= estimates[r1].err_est + estimates[r2].err_est + 1e-12


def test_bochner_linearity(rng, unit_grid):
    t = unit_grid.nodes()
    f = GridFunction(unit_grid, REAL,
                     np.stack([np.sin(3 * t), np.cos(2 * t), t], axis=1))
    g = GridFunction(unit_grid, REAL,
                     np.stack([t ** 2, np.exp(-t), np.sin(t)], axis=1))
    lhs = bochner_integral(GridFunction(unit_grid, REAL, f.values + g.values)).value.coords
    rhs = bochner_integral(f).value.coords + bochner_integral(g).value.coords
    scale = max(np.linalg.norm(lhs), 1.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_defect_nonnegative_random(rng, unit_grid):
    for _ in range(50):
        values = rng.standard_normal((unit_grid.n_nodes, 3))
        est = defect(GridFunction(unit_grid, REAL, values))
        assert est.value >= -est.err_est


def test_err_est_covers_true_error():
    # half-grid comparison should not underestimate the true error wildly
    grid = Grid(0.0, math.pi / 2, 64)
    est = bochner_integral(circle_function(grid), TRAPEZOID)
    true_err = float(np.linalg.norm(est.value.coords - 1.0))
    assert est.err_est >= true_err


def test_jump_aware_midpoint_fallback(unit_grid):
    e = basis_vector(REAL, 2, 0)
    u = basis_vector(REAL, 2, 1)
    f = materialize(FunctionSpec.cone(e, u, 1.0, 0.5), unit_grid, REAL, 2)
    for rule in RULES:
        est = bochner_integral(f, rule)
        assert np.allclose(est.value.coords, [1.0, 0.0], atol=1e-13)


def test_two_panels_compare_against_the_trapezoid():
    """Too coarse to halve: the error estimate is the distance to the trapezoid value,
    |1/3 - 3/8| for t^2 on [0, 1]."""
    grid = Grid(0.0, 1.0, 2)
    est = sample_integral(grid, grid.nodes() ** 2)
    assert est.value == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert est.err_est == abs(est.value - 0.375) == 0.041666666666666685
