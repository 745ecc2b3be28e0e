"""Input checks of the core modules, each called once with the input it rejects; a number
given for a profile parameter; and the boundary of GridFunction's table cache."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from revtri import bounds as B
from revtri.errors import DegeneracyError, InfeasibilityError, InputError
from revtri.fuzz import generate_scenario
from revtri.gridfn import FunctionSpec, Grid, GridFunction, ScalarProfile, materialize
from revtri.hilbert import (COMPLEX, REAL, HVector, basis_vector, check_orthonormal,
                            complete_orthonormal, gram_report, orthonormalize)
from revtri.quadrature import SIMPSON, panel_weights, sample_integral
from revtri.scenario import report_to_json, run

from .test_residual_kernels import _reports

SRC = Path(B.__file__).parent
GRID = Grid(0.0, 1.0, 16)
OTHER_GRID = Grid(0.0, 1.0, 8)
E1, E2, E3 = (basis_vector(REAL, 3, i) for i in range(3))
F = GridFunction(GRID, REAL, np.tile([1.0, 0.5, 0.0], (GRID.n_nodes, 1)))
VALUES = np.ones((GRID.n_nodes, 3))
PLANE = check_orthonormal((basis_vector(REAL, 2, 0), basis_vector(REAL, 2, 1)))


@pytest.mark.parametrize("call, error, message", [
    # bounds
    (lambda: B.check_ball(F, E1, ScalarProfile.constant(OTHER_GRID, 0.5)), InputError,
     "radius profile lives on a different grid"),
    (lambda: B.check_ball(F, basis_vector(COMPLEX, 3, 0), 0.5), InputError,
     "reference vector field/dimension mismatch"),
    (lambda: B.check_ball(F, basis_vector(REAL, 2, 0), 0.5), InputError,
     "reference vector field/dimension mismatch"),
    (lambda: B.check_band(F, E1, 0.5, 2.0, form="outer"), InputError,
     "band form must be 'inner' or 'norm', got 'outer'"),
    # gridfn
    (lambda: ScalarProfile(GRID, np.ones(5)), InputError,
     "profile needs 17 node values, got shape (5,)"),
    (lambda: GridFunction(GRID, "quaternion", VALUES), InputError, "unknown field 'quaternion'"),
    (lambda: GridFunction(GRID, REAL, VALUES, {0: np.ones(3)}), InputError,
     "jump index 0 is not an interior node"),
    (lambda: GridFunction(GRID, REAL, VALUES, {16: np.ones(3)}), InputError,
     "jump index 16 is not an interior node"),
    (lambda: GridFunction(GRID, REAL, VALUES, {4: np.ones(2)}), InputError,
     "jump vector at node 4 has shape (2,)"),
    (lambda: FunctionSpec("spiral", {}), InputError, "unknown function variant 'spiral'"),
    (lambda: materialize(FunctionSpec.cone(basis_vector(REAL, 2, 0), basis_vector(REAL, 2, 1),
                                           1.0, 0.5), GRID, REAL, 3), InputError,
     "cone vectors must match the scenario field and dimension"),
    (lambda: materialize(FunctionSpec.ball_perturbation(basis_vector(COMPLEX, 3, 0), 0.3, 2.0),
                         GRID, REAL, 3), InputError,
     "ball_perturbation e must match the scenario field and dimension"),
    (lambda: materialize(FunctionSpec.family_symmetric(PLANE, 1.0), GRID, REAL, 3), InputError,
     "family must match the scenario field and dimension"),
    # quadrature
    (lambda: panel_weights("midpoint", 4, 0.25), InputError, "unknown quadrature rule 'midpoint'"),
    (lambda: panel_weights(SIMPSON, 0, 0.25), InputError, "need at least one panel"),
    (lambda: sample_integral(GRID, np.ones((GRID.n_nodes, 2))), InputError,
     "expected 17 samples, got shape (17, 2)"),
    # hilbert
    (lambda: HVector(REAL, [1.0, 1.0 + 2.0j]), InputError,
     "real-field vector given coordinates with nonzero imaginary part"),
    (lambda: HVector(REAL, [[1.0, 0.0]]), InputError,
     "coordinates must be a nonempty 1-D sequence, got shape (1, 2)"),
    (lambda: basis_vector(REAL, 3, 3), InputError, "basis index 3 out of range for dimension 3"),
    (lambda: gram_report(()), InputError, "empty vector family"),
    (lambda: gram_report((E1, basis_vector(REAL, 2, 0))), InputError,
     "family member 1 has mismatched field or dimension"),
    (lambda: orthonormalize((E1, E2, E3, HVector(REAL, [1.0, 1.0, 1.0]))), InfeasibilityError,
     "cannot orthonormalize 4 vectors in real^3"),
    (lambda: orthonormalize((HVector(REAL, [0.0, 0.0]), HVector(REAL, [0.0, -0.0]))),
     DegeneracyError, "all input vectors are zero"),
    (lambda: complete_orthonormal((E1,), 3), InfeasibilityError,
     "cannot extend to 4 orthonormal vectors in dimension 3"),
])
def test_an_input_check_raises_its_error(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and message in str(raised.value)


def test_a_real_function_accepts_complex_values_of_zero_imaginary_part():
    f = GridFunction(GRID, REAL, VALUES + 0.0j)
    assert f.values.dtype == np.float64 and f.values.tobytes() == VALUES.T.tobytes()


#: Numbers for each profile parameter of the bounds that take one, with d = 4 functions
#: (d = 1 complex for PROP_4_3) and families of 3: a constant profile of the same value.
PROFILE_NUMBERS = {
    B.THM_2_1: {"k": 0.7},
    B.COR_2_4: {"r": 1.3},
    B.COR_2_5: {"m_profile": 0.4, "M_profile": 2.5},
    B.PROP_4_3: {"m_profile": 0.2, "M_profile": 3.0},
    B.THM_3_1: {"dominance_profiles": (0.7, 0.2, 1.1)},
    B.COR_3_4: {"r_profiles": (1.3, 0.9, 2.0)},
    B.COR_3_5: {"m_profiles": (0.4, 0.1, 0.3), "M_profiles": (2.5, 1.5, 3.0)},
}


def _constant(grid: Grid, value):
    return (tuple(ScalarProfile.constant(grid, v) for v in value) if isinstance(value, tuple)
            else ScalarProfile.constant(grid, value))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("bound_id", sorted(PROFILE_NUMBERS))
def test_a_number_for_a_profile_is_its_constant_profile(bound_id, field):
    """A number given for a profile parameter is judged as the constant profile of its value:
    the same report bytes from ``run()`` and the same slack profiles from ``evaluate``."""
    base = generate_scenario(bound_id, 5, 0, d=4, field=field, n_panels=32)
    entry = base.bounds[0]
    numbers = PROFILE_NUMBERS[bound_id]
    profiles = {name: _constant(base.grid, value) for name, value in numbers.items()}
    got, want = (dataclasses.replace(base, bounds=(dataclasses.replace(
        entry, params=dataclasses.replace(entry.params, **params)),))
        for params in (numbers, profiles))
    assert report_to_json(run(got)) == report_to_json(run(want))
    results = [B.evaluate(s.f, s.reference, s.bounds[0].params, bound_id) for s in (got, want)]
    assert results[0].verdict == results[1].verdict
    pairs = list(zip(*(_reports(r.hypothesis) for r in results)))
    assert len(pairs) == len(list(_reports(results[1].hypothesis)))
    for report, constant in pairs:
        assert report.slack_profile.tobytes() == constant.slack_profile.tobytes()


def test_an_overflowing_family_band_product_is_degenerate_as_a_unit_one():
    """m M = 4e320 overflows: under run()'s floating-point guard, which turns the error into
    a DegeneracyError, a family row's numbers raise as a unit row's do.  They were multiplied
    as Python floats, to inf without an error, and the hypothesis was judged on it."""
    f = GridFunction(GRID, REAL, np.tile([0.0, 0.0, 1.0], (GRID.n_nodes, 1)))
    unit = B.BoundParams(m=1e160, M=4e160)
    family = B.BoundParams(ms=(1e160, 1e160), Ms=(4e160, 4e160))
    for call in (lambda: B.eval_unit_bound(f, E1, unit, B.COR_2_3),
                 lambda: B.eval_family_bound(f, check_orthonormal((E1, E2)), family, B.COR_3_3)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError,
                                                      match="overflow encountered in multiply"):
            call()


def _reaches_the_table_cache(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Attribute) and node.attr == "_tables")
            or (isinstance(node, ast.ImportFrom)
                and any(alias.name == "_array_key" for alias in node.names)))


def test_only_gridfn_knows_the_keys_of_the_table_cache():
    """GridFunction's table cache and its key maker are gridfn's own: no other module reads
    or writes ``_tables`` or imports ``_array_key``."""
    offenders = [
        f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py")) if path.name != "gridfn.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _reaches_the_table_cache(node)]
    assert offenders == []
    assert any(_reaches_the_table_cache(node)
               for node in ast.walk(ast.parse((SRC / "gridfn.py").read_text(encoding="utf-8"))))
