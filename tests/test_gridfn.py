from __future__ import annotations

import math

import numpy as np
import pytest

from revtri import (
    COMPLEX,
    REAL,
    FunctionSpec,
    Grid,
    InfeasibilityError,
    InputError,
    ScalarProfile,
    basis_vector,
    bochner_integral,
    materialize,
    profile_of,
)


def test_grid_validation():
    with pytest.raises(InputError):
        Grid(0.0, 1.0, 7)  # odd
    with pytest.raises(InputError):
        Grid(1.0, 1.0, 8)  # empty interval
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(InputError, match=r"^interval must be finite, got \["):
            Grid(a, b, 8)
    g = Grid(0.0, 2.0, 8)
    assert g.step == 0.25
    nodes = g.nodes()
    assert nodes[0] == 0.0 and nodes[-1] == 2.0
    assert np.all(np.diff(nodes) > 0)


def test_profile_constant_zero(unit_grid):
    p = profile_of({"constant": 0.0}, unit_grid)
    assert np.all(p.values == 0.0)


def test_profile_linear(unit_grid):
    p = profile_of({"linear": [1.0, 4.0]}, unit_grid)
    assert np.allclose(p.values, 1.0 + 3.0 * unit_grid.nodes(), atol=1e-14)


def test_profile_sinusoid_range():
    grid = Grid(0.0, math.pi, 512)
    p = profile_of({"sinusoid": [2.0, 1.0, 1.0]}, grid)
    assert np.all(p.values >= 1.0 - 1e-12)
    assert np.all(p.values <= 3.0 + 1e-12)


def test_profile_negativity_rejected(unit_grid):
    with pytest.raises(InputError):
        profile_of({"linear": [1.0, -0.5]}, unit_grid)
    # signed profiles are explicit opt-in
    p = profile_of({"linear": [1.0, -0.5]}, unit_grid, nonnegative=False)
    assert p.values[-1] == pytest.approx(-0.5)


def test_profile_samples_length(unit_grid):
    with pytest.raises(InputError):
        profile_of({"samples": [1.0, 2.0]}, unit_grid)


def test_scalar_profile_band_pairing(unit_grid):
    m = ScalarProfile.constant(unit_grid, 1.0)
    M = ScalarProfile.constant(unit_grid, 4.0)
    assert np.all(M.values >= m.values)


def test_cone_degenerate_beta_zero(unit_grid):
    e = basis_vector(REAL, 2, 0)
    u = basis_vector(REAL, 2, 1)
    f = materialize(FunctionSpec.cone(e, u, 1.0, 0.0), unit_grid, REAL, 2)
    assert np.allclose(f.values, np.tile(e.coords, (unit_grid.n_nodes, 1)))
    assert f.jumps is None


def test_cone_sign_structure_and_jump(unit_grid):
    e = basis_vector(REAL, 2, 0)
    u = basis_vector(REAL, 2, 1)
    f = materialize(FunctionSpec.cone(e, u, 0.5, 0.25), unit_grid, REAL, 2)
    mid = unit_grid.n_panels // 2
    assert f.values[mid, 1] == 0.25  # midpoint node belongs to the "+" half
    assert f.values[mid + 1, 1] == -0.25
    assert f.jumps is not None and mid in f.jumps
    assert f.jumps[mid][1] == -0.25


def test_cone_integral_is_exact(unit_grid):
    e = basis_vector(REAL, 3, 0)
    u = basis_vector(REAL, 3, 1)
    f = materialize(FunctionSpec.cone(e, u, 1.25, 0.75), unit_grid, REAL, 3)
    est = bochner_integral(f)
    assert np.allclose(est.value.coords, 1.25 * e.coords, atol=1e-14)


def test_cone_orthogonality_enforced(unit_grid):
    e = basis_vector(REAL, 2, 0)
    with pytest.raises(InputError):
        materialize(FunctionSpec.cone(e, e, 1.0, 0.5), unit_grid, REAL, 2)


def test_ball_perturbation_distance(unit_grid):
    e = basis_vector(REAL, 3, 0)
    spec = FunctionSpec.ball_perturbation(e, 0.5, 2 * math.pi)
    f = materialize(spec, unit_grid, REAL, 3)
    dist = np.linalg.norm(f.values - e.coords[None, :], axis=1)
    assert np.max(np.abs(dist - 0.5)) <= 1e-12


def test_ball_perturbation_needs_room():
    grid = Grid(0.0, 1.0, 8)
    e = basis_vector(REAL, 2, 0)
    with pytest.raises(InfeasibilityError):
        materialize(FunctionSpec.ball_perturbation(e, 0.5, 1.0), grid, REAL, 2)


def test_family_symmetric_nodes(unit_grid):
    members = (basis_vector(REAL, 2, 0), basis_vector(REAL, 2, 1))
    spec = FunctionSpec.family_symmetric(members, {"constant": 1.0})
    f = materialize(spec, unit_grid, REAL, 2)
    norms = f.norms()
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    for e_i in members:
        proj = f.projections(e_i.coords)
        assert np.max(np.abs(proj - 1 / math.sqrt(2))) < 1e-14


def test_complex_curve_requires_complex_line(unit_grid):
    spec = FunctionSpec.complex_curve({"constant": 1.0}, {"constant": 0.25})
    with pytest.raises(InfeasibilityError):
        materialize(spec, unit_grid, REAL, 1)
    f = materialize(spec, unit_grid, COMPLEX, 1)
    assert np.allclose(f.values[:, 0], np.exp(0.25j))


def test_complex_curve_signed_phase(unit_grid):
    spec = FunctionSpec.complex_curve({"constant": 1.0}, {"linear": [-0.5, 0.5]})
    f = materialize(spec, unit_grid, COMPLEX, 1)
    assert np.angle(f.values[0, 0]) == pytest.approx(-0.5)
    assert np.angle(f.values[-1, 0]) == pytest.approx(0.5)


def test_materialize_bit_reproducible(unit_grid):
    e = basis_vector(REAL, 4, 0)
    spec = FunctionSpec.ball_perturbation(e, 0.3, 7.0)
    a = materialize(spec, unit_grid, REAL, 4)
    b = materialize(spec, unit_grid, REAL, 4)
    assert np.array_equal(a.values, b.values)


def test_samples_variant_shape(unit_grid):
    values = np.ones((unit_grid.n_nodes, 2))
    f = materialize(FunctionSpec.samples(values), unit_grid, REAL, 2)
    assert f.d == 2
    with pytest.raises(InputError):
        materialize(FunctionSpec.samples(values[:-1]), unit_grid, REAL, 2)


def test_real_grid_function_rejects_complex(unit_grid):
    values = np.ones((unit_grid.n_nodes, 1), dtype=complex) * 1j
    with pytest.raises(InputError):
        materialize(FunctionSpec.samples(values), unit_grid, REAL, 1)
