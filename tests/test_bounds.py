from __future__ import annotations

import math

import numpy as np
import pytest

from revtri import (
    COMPLEX,
    REAL,
    BoundParams,
    DegeneracyError,
    FunctionSpec,
    Grid,
    GridFunction,
    HVector,
    InputError,
    ScalarProfile,
    ball_coefficient,
    band_coefficient,
    basis_vector,
    check_arg,
    check_ball,
    check_band,
    check_box_complex,
    check_dominance,
    check_orthonormal,
    check_scaled_dominance,
    eval_complex_bound,
    eval_family_bound,
    eval_unit_bound,
    materialize,
)
from revtri.bounds import HOLDS, HYPOTHESIS_FAILED, REF_DIRECTION, Reference, evaluate
from .conftest import random_unit


def constant_function(grid, field, coords):
    arr = np.asarray(coords)
    return GridFunction(grid, field, np.tile(arr, (grid.n_nodes, 1)))


def cone(grid, alpha, beta, d=2):
    e = basis_vector(REAL, d, 0)
    u = basis_vector(REAL, d, 1)
    return materialize(FunctionSpec.cone(e, u, alpha, beta), grid, REAL, d), e


# --------------------------------------------------------------------------
# coefficients

def test_ball_coefficient_value():
    assert ball_coefficient(0.6) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(InputError):
        ball_coefficient(1.0)
    with pytest.raises(InputError):
        ball_coefficient(1.0 - 1e-10)  # inside the degeneracy guard
    with pytest.raises(InputError):
        ball_coefficient(0.0)


def test_band_coefficient_value():
    assert band_coefficient(1.0, 4.0) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(InputError):
        band_coefficient(0.0, 1.0)
    with pytest.raises(InputError):
        band_coefficient(2.0, 1.0)


# --------------------------------------------------------------------------
# hypothesis checkers

def test_dominance_constant_cases(unit_grid):
    e = basis_vector(REAL, 2, 0)
    zero = ScalarProfile.constant(unit_grid, 0.0)
    for factor in (1.0, 2.0):
        f = constant_function(unit_grid, REAL, factor * e.coords)
        report = check_dominance(f, e, zero)
        assert report.holds and report.worst_violation == pytest.approx(0.0, abs=1e-14)
    f = constant_function(unit_grid, REAL, [0.0, 1.0])
    report = check_dominance(f, e, ScalarProfile.constant(unit_grid, 0.5))
    assert not report.holds
    assert report.worst_violation == pytest.approx(0.5, rel=1e-13)


def test_dominance_requires_unit_reference(unit_grid):
    f = constant_function(unit_grid, REAL, [1.0, 0.0])
    with pytest.raises(InputError):
        check_dominance(f, HVector(REAL, [2.0, 0.0]),
                        ScalarProfile.constant(unit_grid, 0.0))


@pytest.mark.parametrize("coords", [[math.nan, 0.0], [1.0, math.nan]])
def test_a_nan_reference_is_not_a_unit_vector(unit_grid, coords):
    f = constant_function(unit_grid, REAL, [1.0, 0.0])
    e = HVector(REAL, coords)
    with pytest.raises(InputError, match="must be a unit vector"):
        check_ball(f, e, 0.5)
    with pytest.raises(InputError, match="must be a unit vector"):
        eval_unit_bound(f, e, BoundParams(rho=0.5), "COR_2_2")
    with pytest.raises(InputError, match="must be a unit vector"):
        materialize(FunctionSpec.cone(basis_vector(REAL, 2, 1), e, 1.0, 0.3), unit_grid,
                    REAL, 2)


def test_ball_checker(unit_grid):
    e = basis_vector(REAL, 3, 0)
    f = constant_function(unit_grid, REAL, e.coords)
    assert check_ball(f, e, ScalarProfile.constant(unit_grid, 0.1)).holds

    spec = FunctionSpec.ball_perturbation(e, 0.5, 2 * math.pi)
    boundary = materialize(spec, unit_grid, REAL, 3)
    report = check_ball(boundary, e, ScalarProfile.constant(unit_grid, 0.5))
    assert report.holds and report.worst_violation <= 1e-12

    far = materialize(FunctionSpec.ball_perturbation(e, 0.9, 2 * math.pi), unit_grid, REAL, 3)
    report = check_ball(far, e, ScalarProfile.constant(unit_grid, 0.6))
    assert not report.holds
    assert report.worst_violation == pytest.approx(0.3, abs=1e-12)


def test_band_checker_forms(unit_grid):
    e = basis_vector(REAL, 2, 0)
    m = ScalarProfile.constant(unit_grid, 1.0)
    M = ScalarProfile.constant(unit_grid, 4.0)
    inside = constant_function(unit_grid, REAL, 2.0 * e.coords)
    inner_rep = check_band(inside, e, m, M, "inner")
    assert inner_rep.holds
    # value of the inner product at f = 2e is (4-2)(2-1) = 2, residual -2
    assert inner_rep.slack_profile[0] == pytest.approx(-2.0, rel=1e-13)
    norm_rep = check_band(inside, e, m, M, "norm")
    assert norm_rep.holds
    assert norm_rep.slack_profile[0] == pytest.approx(0.5 - 1.5, rel=1e-13)

    outside = constant_function(unit_grid, REAL, 5.0 * e.coords)
    assert not check_band(outside, e, m, M, "inner").holds
    assert not check_band(outside, e, m, M, "norm").holds


def test_band_rejects_crossed_profiles(unit_grid):
    e = basis_vector(REAL, 2, 0)
    f = constant_function(unit_grid, REAL, e.coords)
    with pytest.raises(InputError):
        check_band(f, e, ScalarProfile.constant(unit_grid, 2.0),
                   ScalarProfile.constant(unit_grid, 1.0))


def test_band_equivalence_random(rng, unit_grid):
    # the two band forms agree in verdict and vanish together at the boundary
    grid = Grid(0.0, 1.0, 64)
    agreements = 0
    for _ in range(200):
        e = random_unit(rng, REAL, 3)
        values = rng.standard_normal((grid.n_nodes, 3)) * rng.uniform(0.2, 2.0)
        f = GridFunction(grid, REAL, values)
        m_val = rng.uniform(0.05, 1.0)
        M_val = m_val + rng.uniform(0.0, 3.0)
        m = ScalarProfile.constant(grid, m_val)
        M = ScalarProfile.constant(grid, M_val)
        inner_rep = check_band(f, e, m, M, "inner")
        norm_rep = check_band(f, e, m, M, "norm")
        assert inner_rep.holds == norm_rep.holds
        agreements += 1
    assert agreements == 200


def test_band_residuals_vanish_together(unit_grid):
    f, e = cone(unit_grid, 1.6, 1.2)
    m = ScalarProfile.constant(unit_grid, 1.0)
    M = ScalarProfile.constant(unit_grid, 4.0)
    inner_rep = check_band(f, e, m, M, "inner")
    norm_rep = check_band(f, e, m, M, "norm")
    assert np.max(np.abs(inner_rep.slack_profile)) <= 1e-12
    assert np.max(np.abs(norm_rep.slack_profile)) <= 1e-12


def test_box_checker(unit_grid):
    alpha = beta = 1 / math.sqrt(2)
    one = ScalarProfile.constant(unit_grid, 1.0)
    e_val = complex(alpha, beta)
    f = constant_function(unit_grid, COMPLEX, [e_val])
    report = check_box_complex(f, alpha, beta, one, one)
    assert report.holds and report.worst_violation <= 1e-12

    f2 = constant_function(unit_grid, COMPLEX, [2.5 * e_val])
    report = check_box_complex(f2, alpha, beta, one,
                               ScalarProfile.constant(unit_grid, 4.0))
    assert report.holds
    assert report.sub_reports[0].holds  # implied band condition

    f3 = constant_function(unit_grid, COMPLEX, [1j])
    report = check_box_complex(f3, alpha, beta,
                               ScalarProfile.constant(unit_grid, 0.5),
                               ScalarProfile.constant(unit_grid, 2.0))
    assert not report.holds
    assert report.worst_violation == pytest.approx(0.5 * alpha, rel=1e-13)


def test_box_requires_positive_direction(unit_grid):
    one = ScalarProfile.constant(unit_grid, 1.0)
    f = constant_function(unit_grid, COMPLEX, [1.0 + 0.0j])
    with pytest.raises(InputError):
        check_box_complex(f, -0.6, 0.8, one, one)
    with pytest.raises(InputError):
        check_box_complex(f, 0.6, 0.7, one, one)


def test_arg_checker(unit_grid):
    f = constant_function(unit_grid, COMPLEX, [1.0 + 0.0j])
    assert check_arg(f, 0.3).holds

    grid = Grid(-math.pi / 3, math.pi / 3, 512)
    spec = FunctionSpec.complex_curve({"constant": 1.0},
                                      {"linear": [-math.pi / 3, math.pi / 3]})
    curve = materialize(spec, grid, COMPLEX, 1)
    boundary = check_arg(curve, math.pi / 3)
    assert boundary.holds and boundary.worst_violation <= 1e-12
    tight = check_arg(curve, math.pi / 6)
    assert not tight.holds
    assert tight.worst_violation == pytest.approx(math.pi / 6, rel=1e-12)

    zero = constant_function(unit_grid, COMPLEX, [0.0 + 0.0j])
    with pytest.raises(DegeneracyError):
        check_arg(zero, 0.3)
    with pytest.raises(InputError):
        check_arg(f, math.pi / 2)


# --------------------------------------------------------------------------
# unit bound evaluation

def test_thm21_constant_equality(unit_grid):
    e = basis_vector(REAL, 2, 0)
    f = constant_function(unit_grid, REAL, e.coords)
    res = eval_unit_bound(f, e, BoundParams(k=ScalarProfile.constant(unit_grid, 0.0)),
                          "THM_2_1")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(0.0, abs=1e-14)
    assert res.rhs == 0.0


def test_cor22_cone_equality(unit_grid):
    f, e = cone(unit_grid, 0.64, 0.48)
    res = eval_unit_bound(f, e, BoundParams(rho=0.6), "COR_2_2")
    assert res.verdict == HOLDS
    assert res.rhs_terms["coefficient"] == pytest.approx(0.25, rel=1e-14)
    assert res.rhs_terms["projection"] == pytest.approx(0.64, abs=1e-13)
    assert res.lhs == pytest.approx(0.16, abs=1e-12)
    assert res.rhs == pytest.approx(0.16, abs=1e-12)
    assert abs(res.margin) <= 1e-12


def test_cor23_cone_equality(unit_grid):
    f, e = cone(unit_grid, 1.6, 1.2)
    res = eval_unit_bound(f, e, BoundParams(m=1.0, M=4.0), "COR_2_3")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(0.4, abs=1e-12)
    assert res.rhs == pytest.approx(0.4, abs=1e-12)


def test_cor25_cone_equality(unit_grid):
    f, e = cone(unit_grid, 2.05, math.sqrt(2.0475))
    params = BoundParams(m_profile=ScalarProfile.constant(unit_grid, 1.0),
                         M_profile=ScalarProfile.constant(unit_grid, 4.0))
    res = eval_unit_bound(f, e, params, "COR_2_5")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(0.45, abs=1e-12)
    assert res.rhs == pytest.approx(0.45, abs=1e-12)


def test_karamata_analytic_curve():
    grid = Grid(-math.pi / 3, math.pi / 3, 512)
    spec = FunctionSpec.complex_curve({"constant": 1.0},
                                      {"linear": [-math.pi / 3, math.pi / 3]})
    f = materialize(spec, grid, COMPLEX, 1)
    res = eval_unit_bound(f, None, BoundParams(theta=math.pi / 3), "KARAMATA")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(0.5 * (2 * math.pi / 3), rel=1e-12)
    assert res.rhs == pytest.approx(math.sqrt(3.0), abs=1e-10)


def test_scaled_dominance_checker(unit_grid):
    e = basis_vector(REAL, 2, 0)
    f = constant_function(unit_grid, REAL, [1.0, 1.0])
    # ||f|| = sqrt(2), Re<f,e> = 1: holds exactly at K = sqrt(2)
    assert check_scaled_dominance(f, e, math.sqrt(2.0)).holds
    report = check_scaled_dominance(f, e, 1.2)
    assert not report.holds
    assert report.worst_violation == pytest.approx(math.sqrt(2.0) - 1.2, rel=1e-12)
    with pytest.raises(InputError):
        check_scaled_dominance(f, e, 0.9)


def test_mult_a_colinear(unit_grid):
    e = basis_vector(REAL, 2, 0)
    f = constant_function(unit_grid, REAL, 2.0 * e.coords)
    res = eval_unit_bound(f, e, BoundParams(K=1.0), "MULT_A")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(2.0, rel=1e-13)
    assert res.rhs == pytest.approx(2.0, rel=1e-13)


def test_mult_b_cone(unit_grid):
    f, e = cone(unit_grid, 0.64, 0.48)
    res = eval_unit_bound(f, e, BoundParams(rho=0.6), "MULT_B")
    # sqrt(1-rho^2) * 0.8 = 0.64 = ||int f||: equality case
    assert res.verdict == HOLDS
    assert abs(res.margin) <= 1e-12


def test_mult_c_corrected_and_printed(unit_grid):
    f, e = cone(unit_grid, 1.6, 1.2)
    res = eval_unit_bound(f, e, BoundParams(m=1.0, M=4.0), "MULT_C")
    assert res.verdict == HOLDS
    # corrected additive form is tight on the equality cone
    assert res.lhs == pytest.approx(0.4, abs=1e-12)
    assert res.rhs == pytest.approx(0.4, abs=1e-12)
    assert res.diagnostics["mult_margin"] == pytest.approx(0.0, abs=1e-12)
    # the printed variant multiplies ||int f|| instead and fails here:
    # 0.2 * 1.6 = 0.32 < 0.4, diagnostic evidence that only the corrected
    # form is derivable
    assert res.diagnostics["printed_rhs"] == pytest.approx(0.32, abs=1e-12)
    assert res.diagnostics["printed_margin"] < -0.07


def test_hypothesis_failure_short_circuits(unit_grid):
    e = basis_vector(REAL, 3, 0)
    far = materialize(FunctionSpec.ball_perturbation(e, 0.9, 2 * math.pi),
                      unit_grid, REAL, 3)
    res = eval_unit_bound(far, e, BoundParams(rho=0.6), "COR_2_2")
    assert res.verdict == HYPOTHESIS_FAILED
    assert not res.hypothesis.holds


def test_param_validation(unit_grid):
    e = basis_vector(REAL, 2, 0)
    f = constant_function(unit_grid, REAL, e.coords)
    with pytest.raises(InputError):
        eval_unit_bound(f, e, BoundParams(rho=1.0), "COR_2_2")
    with pytest.raises(InputError):
        eval_unit_bound(f, e, BoundParams(m=-1.0, M=1.0), "COR_2_3")
    with pytest.raises(InputError):
        eval_unit_bound(f, e, BoundParams(K=0.5), "MULT_A")
    with pytest.raises(InputError):
        eval_unit_bound(f, e, BoundParams(), "THM_2_1")


def test_chain_ordering_re_form_below_weak(rng):
    grid = Grid(0.0, 1.0, 64)
    for _ in range(100):
        e = random_unit(rng, COMPLEX, 4)
        rho = rng.uniform(0.1, 0.9)
        w = rng.standard_normal((grid.n_nodes, 4)) + 1j * rng.standard_normal((grid.n_nodes, 4))
        w = w / np.max(np.linalg.norm(w, axis=1))
        f = GridFunction(grid, COMPLEX, e.coords[None, :] + rho * 0.9 * w)
        res = eval_unit_bound(f, e, BoundParams(rho=rho), "COR_2_2")
        scale = abs(res.rhs) + abs(res.rhs_terms["weak_rhs"]) + 1.0
        assert res.rhs <= res.rhs_terms["weak_rhs"] + 1e-12 * scale


def test_monotonicity_in_dominance_profile(rng, unit_grid):
    e = basis_vector(REAL, 3, 0)
    values = rng.standard_normal((unit_grid.n_nodes, 3))
    f = GridFunction(unit_grid, REAL, values)
    gap = np.maximum(f.norms() - f.projections(e.coords), 0.0)
    k_small = ScalarProfile(unit_grid, gap + 0.1)
    k_large = ScalarProfile(unit_grid, gap + 0.1 + np.abs(np.sin(unit_grid.nodes())))
    res_small = eval_unit_bound(f, e, BoundParams(k=k_small), "THM_2_1")
    res_large = eval_unit_bound(f, e, BoundParams(k=k_large), "THM_2_1")
    assert res_large.rhs >= res_small.rhs
    assert res_small.verdict == HOLDS and res_large.verdict == HOLDS


# --------------------------------------------------------------------------
# family bounds

def family_of_basis(n, d, field=REAL):
    return check_orthonormal([basis_vector(field, d, i) for i in range(n)])


def test_family_symmetric_equality(unit_grid):
    family = family_of_basis(2, 2)
    spec = FunctionSpec.family_symmetric(family.members, {"constant": 1.0})
    f = materialize(spec, unit_grid, REAL, 2)
    gap = ScalarProfile.constant(unit_grid, 1.0 - 1.0 / math.sqrt(2))
    res = eval_family_bound(f, family, BoundParams(dominance_profiles=(gap, gap)),
                            "THM_3_1")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(1.0, rel=1e-13)
    assert res.rhs == pytest.approx(1.0, rel=1e-13)


def test_family_single_vector_reduces(unit_grid):
    family = family_of_basis(1, 2)
    f = constant_function(unit_grid, REAL, family.members[0].coords)
    zero = ScalarProfile.constant(unit_grid, 0.0)
    res = eval_family_bound(f, family, BoundParams(dominance_profiles=(zero,)), "THM_3_1")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(1.0)
    assert res.rhs == pytest.approx(1.0)


def test_family_asymmetric_profiles(unit_grid):
    family = family_of_basis(2, 2)
    f = constant_function(unit_grid, REAL, family.members[0].coords)
    zero = ScalarProfile.constant(unit_grid, 0.0)
    one = ScalarProfile.constant(unit_grid, 1.0)
    res = eval_family_bound(f, family, BoundParams(dominance_profiles=(zero, one)),
                            "THM_3_1")
    assert res.verdict == HOLDS
    assert res.hypothesis.holds
    assert res.lhs == pytest.approx(1.0)
    assert res.rhs == pytest.approx(1.0 / math.sqrt(2) + 0.5, rel=1e-13)


def test_family_reduction_matches_unit(rng):
    grid = Grid(0.0, 1.0, 64)
    for _ in range(100):
        e = random_unit(rng, REAL, 3)
        family = check_orthonormal([e])
        values = rng.standard_normal((grid.n_nodes, 3)) * rng.uniform(0.5, 2.0)
        f = GridFunction(grid, REAL, values)
        gap = np.maximum(f.norms() - f.projections(e.coords), 0.0) + rng.uniform(0.0, 0.5)
        k = ScalarProfile(grid, gap)
        unit_res = eval_unit_bound(f, e, BoundParams(k=k), "THM_2_1")
        fam_res = eval_family_bound(f, family, BoundParams(dominance_profiles=(k,)),
                                    "THM_3_1")
        scale = abs(unit_res.margin) + abs(fam_res.margin) + 1.0
        assert abs(unit_res.margin - fam_res.margin) <= 1e-12 * scale
        assert unit_res.verdict == fam_res.verdict == HOLDS


def test_family_failing_index_reported(unit_grid):
    family = family_of_basis(2, 2)
    f = constant_function(unit_grid, REAL, family.members[0].coords)
    zero = ScalarProfile.constant(unit_grid, 0.0)
    half = ScalarProfile.constant(unit_grid, 0.5)
    res = eval_family_bound(f, family, BoundParams(dominance_profiles=(zero, half)),
                            "THM_3_1")
    assert res.verdict == HYPOTHESIS_FAILED
    assert res.hypothesis.failing_indices == (1,)


def test_family_length_mismatch(unit_grid):
    family = family_of_basis(2, 2)
    f = constant_function(unit_grid, REAL, family.members[0].coords)
    zero = ScalarProfile.constant(unit_grid, 0.0)
    with pytest.raises(InputError):
        eval_family_bound(f, family, BoundParams(dominance_profiles=(zero,)), "THM_3_1")


# --------------------------------------------------------------------------
# complex-plane bounds

def test_prop41_constant(unit_grid):
    alpha = beta = 1 / math.sqrt(2)
    f = constant_function(unit_grid, COMPLEX, [complex(alpha, beta)])
    res = eval_complex_bound(f, alpha, beta, BoundParams(rho=0.6), "PROP_4_1")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(0.0, abs=1e-13)
    assert res.rhs == pytest.approx(0.25, rel=1e-12)


def test_prop42_constant(unit_grid):
    alpha, beta = 0.6, 0.8
    f = constant_function(unit_grid, COMPLEX, [2.5 * complex(alpha, beta)])
    res = eval_complex_bound(f, alpha, beta, BoundParams(m=1.0, M=4.0), "PROP_4_2")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(0.0, abs=1e-13)
    assert res.rhs == pytest.approx(0.25 * 2.5, rel=1e-12)


def test_prop43_degenerate_band(unit_grid):
    alpha, beta = 0.6, 0.8
    one = ScalarProfile.constant(unit_grid, 1.0)
    f = constant_function(unit_grid, COMPLEX, [complex(alpha, beta)])
    res = eval_complex_bound(f, alpha, beta,
                             BoundParams(m_profile=one, M_profile=one), "PROP_4_3")
    assert res.verdict == HOLDS
    assert res.lhs == pytest.approx(0.0, abs=1e-13)
    assert res.rhs == 0.0


def test_split_projection_consistency(rng):
    grid = Grid(0.0, 1.0, 128)
    for _ in range(50):
        psi = rng.uniform(0.1, math.pi / 2 - 0.1)
        alpha, beta = math.cos(psi), math.sin(psi)
        values = (rng.standard_normal(grid.n_nodes)
                  + 1j * rng.standard_normal(grid.n_nodes))[:, None]
        f = GridFunction(grid, COMPLEX, 2.0 + values * 0.3)
        res = eval_complex_bound(f, alpha, beta, BoundParams(rho=0.9), "PROP_4_1")
        scale = abs(res.rhs_terms["split_projection"]) + abs(res.diagnostics["projection"]) + 1.0
        assert abs(res.diagnostics["split_gap"]) <= 1e-12 * scale


@pytest.mark.parametrize("n_panels", [512, 65536])
def test_split_projection_integrates_the_parts_of_a_jump(n_panels):
    # COR_2_2's cone in the complex plane: e = e^{0.7i}, u = i e, rho = 0.6, s(t) = +1
    # through the midpoint node, then -1, with the jump recorded there.  The half-grid
    # comparison of the split integrals must see the jump as the Bochner integral does.
    theta, rho = 0.7, 0.6
    grid = Grid(0.0, 1.0, n_panels)
    e = complex(math.cos(theta), math.sin(theta))
    a, b = (1.0 - rho * rho) * e, rho * math.sqrt(1.0 - rho * rho) * (1j * e)
    mid = n_panels // 2
    values = np.repeat([[a + b], [a - b]], (mid + 1, n_panels - mid), axis=0)
    f = GridFunction(grid, COMPLEX, values, {mid: np.array([a - b])})
    res = evaluate(f, Reference(REF_DIRECTION, alpha=e.real, beta=e.imag),
                   BoundParams(rho=rho), "PROP_4_1")
    assert res.verdict == HOLDS and res.hypothesis.holds
    assert res.err_budget < 1e-12
    assert abs(res.diagnostics["split_gap"]) <= res.err_budget


def test_box_implies_band(rng, unit_grid):
    grid = Grid(0.0, 1.0, 64)
    for _ in range(200):
        psi = rng.uniform(0.1, math.pi / 2 - 0.1)
        alpha, beta = math.cos(psi), math.sin(psi)
        m_val = rng.uniform(0.05, 1.0)
        M_val = m_val + rng.uniform(0.0, 2.0)
        x = rng.uniform(m_val * alpha, M_val * alpha, grid.n_nodes)
        y = rng.uniform(m_val * beta, M_val * beta, grid.n_nodes)
        f = GridFunction(grid, COMPLEX, (x + 1j * y)[:, None])
        m = ScalarProfile.constant(grid, m_val)
        M = ScalarProfile.constant(grid, M_val)
        report = check_box_complex(f, alpha, beta, m, M)
        assert report.holds
        band = check_band(f, HVector(COMPLEX, [complex(alpha, beta)]), m, M, "inner")
        assert band.holds
