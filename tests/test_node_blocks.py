"""Large-N node work along the node axis: row norms, distances and band-norm residuals
summed one column at a time, row-wise function builds and scalar ball/band constants,
each equal bit for bit to the whole-array formula it replaces (kept here as the
reference; from 8 columns on, where numpy sums a row pairwise, the per-column formula),
with numpy's FloatingPointError texts, a sum's overflow named "add" where numpy's
reduction says "reduce".  Also: equality recipes
that are not finite are input errors, and ``run()`` builds f under its floating-point
guard."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from revtri import bounds as B
from revtri.cli import main
from revtri.errors import DegeneracyError, InputError
from revtri.extremal import extremal_scenario
from revtri.fuzz import generate_scenario
from revtri.gridfn import (
    FunctionSpec,
    Grid,
    GridFunction,
    ScalarProfile,
    materialize,
    profile_of,
    row_norms,
)
from revtri.hilbert import COMPLEX, REAL, HVector, basis_vector, check_orthonormal
from revtri.scenario import (
    _NODE_BLOCK,
    BoundEntry,
    Scenario,
    report_to_csv,
    report_to_json,
    run,
    scenario_from_dict,
)
from .conftest import cone_recipe
from .test_node_tables import PAIRWISE_COLUMNS, _column_norms, _numpy_norms
from .test_residual_kernels import evaluate_bounds

# --------------------------------------------------------------------------
# the whole-array formulas


def _whole_norms(x):
    """numpy's row norms below 8 columns, where numpy sums a row in column order; from 8
    on, where it sums a row pairwise, the per-column formula."""
    return np.linalg.norm(x, axis=1) if x.shape[1] < PAIRWISE_COLUMNS else _column_norms(x)


def _whole_distances(x, c):
    return _whole_norms(x - c[None, :])


def _whole_band(x, e, m_vals, M_vals):
    center = 0.5 * (M_vals + m_vals)
    dist = _whole_norms(x - center[:, None] * e[None, :])
    return dist - 0.5 * (M_vals - m_vals)


def _column_band(x, e, m_vals, M_vals):
    """The band-norm residuals with the per-column formula's operation order."""
    return _column_norms(x, e, 0.5 * (M_vals + m_vals)) - 0.5 * (M_vals - m_vals)


def _whole_cone(grid, e, u, alpha, beta):
    s = np.ones(grid.n_nodes)
    s[grid.n_panels // 2 + 1:] = -1.0
    return alpha * e[None, :] + s[:, None] * (beta * u[None, :])


def _whole_ball(grid, e, u, v, rho, omega):
    t = grid.nodes()
    circle = np.cos(omega * t)[:, None] * u[None, :] + np.sin(omega * t)[:, None] * v[None, :]
    return e[None, :] + rho * circle


def _whole_family(family, c):
    direction = family.sum_vector().coords / np.sqrt(family.n)
    return c.values[:, None] * direction[None, :]


def _outcome(fn, *args):
    """The result's dtype, shape and bytes, or the FloatingPointError message."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            out = fn(*args)
        except FloatingPointError as exc:
            return str(exc)
    return out.dtype.str, out.shape, out.tobytes()


def _band_residuals(x, e, m_vals, M_vals):
    return B._band_norm_residuals(SimpleNamespace(values=x), e, m_vals, M_vals)


# --------------------------------------------------------------------------
# node tables in node blocks

SIZES = [_NODE_BLOCK - 1, _NODE_BLOCK, _NODE_BLOCK + 1, 8193, 65537]
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
                    1e153, -1.3e153])


def _rows(rng, n: int, d: int, field: str) -> np.ndarray:
    """Random rows with signed zeros, subnormals and entries whose squares are near the
    float range (no row's sum of squares overflows) scattered over every block."""
    def part():
        x = rng.standard_normal((n, d)) * np.exp(rng.uniform(-30.0, 30.0, (n, d)))
        pick = rng.random((n, d)) < 0.02
        x[pick] = rng.choice(SPECIAL, int(pick.sum()))
        return x
    x = part()
    if field == COMPLEX:
        x = x + 1j * part()
    x[-1] = -0.0
    return x


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n", SIZES)
def test_node_tables_equal_the_whole_array_formulas(n, field):
    rng = np.random.default_rng(n)
    for d in range(1, 9):
        x = _rows(rng, n, d, field)
        c = x[n // 3].copy()
        m_vals = rng.uniform(0.0, 2.0, n)
        M_vals = m_vals + rng.uniform(0.0, 3.0, n)
        e = c / np.linalg.norm(c)
        assert _outcome(row_norms, x) == _outcome(_whole_norms, x), d
        assert _outcome(row_norms, x, c) == _outcome(_whole_distances, x, c), d
        assert (_outcome(_band_residuals, x, e, m_vals, M_vals)
                == _outcome(_whole_band, x, e, m_vals, M_vals)), d


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_distances_of_a_function_equal_the_whole_difference(field):
    rng = np.random.default_rng(5)
    for n in (4095, 4097, 8193, 65537):
        grid = Grid(0.0, 1.0, n - 1)
        for d in range(1, 9):
            f = GridFunction(grid, field, _rows(rng, n, d, field))
            c = f.values[1].copy()
            assert f.distances(c).tobytes() == _whole_distances(f.values, c).tobytes()
            assert f.norms().tobytes() == _whole_norms(f.values).tobytes()


def _overflow_rows(n: int, d: int, field: str, early: float, late: float) -> np.ndarray:
    """Rows of ones with ``early`` in the first block and ``late`` in the last one."""
    x = np.ones((n, d), dtype=np.complex128 if field == COMPLEX else np.float64)
    x[1, :] = early
    x[-2, :] = late
    return x


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("d", [2, 3, 7, 8])
@pytest.mark.parametrize("early, late", [
    (1.2e154, 1.0),       # a sum of finite squares overflows
    (1.2e154, 1e200),     # ... and a later square overflows: numpy squares all first
    (1.0, 1e200),
])
def test_node_tables_raise_numpys_error_text(field, d, early, late):
    n = 3 * _NODE_BLOCK + 5
    x = _overflow_rows(n, d, field, early, late)
    c = np.ones(d, dtype=x.dtype)
    m_vals, M_vals = np.zeros(n), np.full(n, 2.0)

    def numpy_band():
        return _numpy_norms(x, c, 0.5 * (M_vals + m_vals)) - 0.5 * (M_vals - m_vals)

    # a column at a time: a sum's overflow is named "add", where numpy's is "reduce"
    for got, column, numpy in [
        (_outcome(row_norms, x), _outcome(_column_norms, x), _outcome(_numpy_norms, x)),
        (_outcome(row_norms, x, c), _outcome(_column_norms, x, c),
         _outcome(_numpy_norms, x, c)),
        (_outcome(_band_residuals, x, c, m_vals, M_vals),
         _outcome(_column_band, x, c, m_vals, M_vals), _outcome(numpy_band)),
    ]:
        assert isinstance(numpy, str)
        assert got == column == numpy.replace("in reduce", "in add")


@pytest.mark.parametrize("d", [2, 5, 8])
def test_a_later_subtraction_overflow_is_numpys_first_error(d):
    n = 2 * _NODE_BLOCK + 3
    x = np.ones((n, d))
    x[0, :] = 1.2e154        # the sum of squares of this row overflows in the first block
    x[-1, 0] = 1.5e308       # x - c overflows in the last block
    c = np.full(d, -1.5e308)
    assert _outcome(row_norms, x, c) == _outcome(_whole_distances, x, c) \
        == "overflow encountered in subtract"
    e = np.zeros(d)
    e[0] = 1.0
    m_vals, M_vals = np.zeros(n), np.zeros(n)
    M_vals[-1] = -1.7e308    # the center -0.85e308 e
    assert _outcome(_band_residuals, x, e, m_vals, M_vals) \
        == _outcome(_whole_band, x, e, m_vals, M_vals) == "overflow encountered in subtract"


def test_overflowing_tables_warn_as_numpy_does():
    x = _overflow_rows(2 * _NODE_BLOCK + 1, 3, REAL, 1.2e154, 1e200)
    with np.errstate(over="warn"), pytest.warns(RuntimeWarning) as record:
        got = row_norms(x)
    with np.errstate(over="warn"), pytest.warns(RuntimeWarning):
        want = _whole_norms(x)
    assert got.tobytes() == want.tobytes()
    with np.errstate(over="warn"), pytest.warns(RuntimeWarning) as numpy_record:
        np.linalg.norm(x, axis=1)
    with np.errstate(over="warn"), pytest.warns(RuntimeWarning) as column_record:
        _column_norms(x)
    messages = [str(w.message) for w in record]
    assert messages == [str(w.message) for w in column_record]
    # the same overflows, each column's square and sum warning on its own; numpy's
    # overflowing reduction is row_norms' "add"
    assert set(messages) == {str(w.message).replace("in reduce", "in add")
                             for w in numpy_record}


# --------------------------------------------------------------------------
# column-wise builds

N_LARGE = 65536


def _frame(rng, field: str, d: int, n: int) -> list[HVector]:
    a = rng.standard_normal((d, n))
    if field == COMPLEX:
        a = a + 1j * rng.standard_normal((d, n))
    q, _ = np.linalg.qr(a)
    return [HVector(field, q[:, i]) for i in range(n)]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("d", range(2, 9))
def test_builds_equal_the_broadcast_formulas(d, field):
    rng = np.random.default_rng(100 + d)
    grid = Grid(0.0, 1.0, N_LARGE)
    e, u, v = _frame(rng, field, d, 3) if d >= 3 else _frame(rng, field, d, 2) + [None]
    for alpha, beta in [(1.05, 0.3), (0.7, 0.0), (2.5, -0.0)]:
        f = materialize(FunctionSpec.cone(e, u, alpha, beta), grid, field, d)
        assert f.values.tobytes() == _whole_cone(grid, e.coords, u.coords, alpha,
                                                 beta).tobytes()
    # signed zeros in the directions
    zero_e, zero_u = basis_vector(field, d, 0), HVector(field, -basis_vector(field, d, 1).coords)
    f = materialize(FunctionSpec.cone(zero_e, zero_u, 1.0, 0.5), grid, field, d)
    assert f.values.tobytes() == _whole_cone(grid, zero_e.coords, zero_u.coords, 1.0,
                                             0.5).tobytes()
    if d >= 3:
        for rho, omega in [(0.3, 7.0), (0.9, 0.0), (0.1, -123.4)]:
            f = materialize(FunctionSpec.ball_perturbation(e, rho, omega, u, v), grid, field, d)
            assert f.values.tobytes() == _whole_ball(grid, e.coords, u.coords, v.coords,
                                                     rho, omega).tobytes()
    family = check_orthonormal(tuple(_frame(rng, field, d, min(d, 3))))
    for spec in [{"sinusoid": [0.9, 0.2, 3.0]}, {"linear": [0.0, 1.0]}, 0.0]:
        c = profile_of(spec, grid)
        f = materialize(FunctionSpec.family_symmetric(family.members, c), grid, field, d)
        assert f.values.tobytes() == _whole_family(family, c).tobytes()


# --------------------------------------------------------------------------
# scalar ball and band constants

SCALAR_BOUNDS = (B.COR_2_2, B.COR_2_3, B.MULT_B, B.MULT_C, B.PROP_4_1, B.PROP_4_2)


def _constant_profiles(monkeypatch) -> None:
    """Hand every hypothesis the node values of a number's constant profile in place of
    the number's 0-d array."""
    profile_on = B._profile_on

    def constant_profile_on(f, p, name):
        if not isinstance(p, ScalarProfile):
            p = ScalarProfile.constant(f.grid, p)
        return profile_on(f, p, name)
    monkeypatch.setattr(B, "_profile_on", constant_profile_on)


def _texts(scenario) -> str:
    report = run(scenario)
    slack = b"".join(r.hypothesis.slack_profile.tobytes() for r in evaluate_bounds(scenario))
    return report_to_json(report) + report_to_csv(report) + slack.hex()


@pytest.mark.parametrize("bound_id", SCALAR_BOUNDS)
def test_scalar_constants_give_the_constant_profile_reports(bound_id, monkeypatch):
    scenarios = [lambda seed=seed, field=field, n=n, trial=trial: generate_scenario(
                     bound_id, seed, trial, field=field, n_panels=n)
                 for seed in (901, 902) for field in (REAL, COMPLEX)
                 for n in (512, 8192) for trial in (0, 1)]
    texts = [_texts(make()) for make in scenarios]
    with monkeypatch.context() as patched:
        _constant_profiles(patched)
        assert [_texts(make()) for make in scenarios] == texts


def _cone_file(bounds) -> dict:
    return {"id": "cone", "field": "complex", "d": 2, "interval": [0.0, 1.0], "N": 64,
            "function": {"variant": "cone", "e": [[1.0, 0.0], [0.0, 0.0]],
                         "u": [[0.0, 0.0], [0.0, 1.0]], "alpha": 1.0, "beta": 0.3},
            "reference": {"e": [[1.0, 0.0], [0.0, 0.0]]}, "bounds": bounds,
            "tolerances": {}}


@pytest.mark.parametrize("params", [
    {"m": 1e160, "M": 4e160},      # m * M overflows
    {"m": 0.5, "M": 2.0},
    {"m": 2.0, "M": 3.0},          # the hypothesis fails
])
def test_scalar_band_constants_raise_as_profiles_do(params, monkeypatch):
    data = _cone_file([{"bound_id": "COR_2_3", "params": params}])

    def outcome():
        try:
            return _texts(scenario_from_dict(data))
        except DegeneracyError as exc:
            return str(exc)
    expected = outcome()
    with monkeypatch.context() as patched:
        _constant_profiles(patched)
        assert outcome() == expected


@pytest.mark.parametrize("form", ["inner", "norm"])
def test_checkers_take_a_number_for_a_constant_profile(form):
    scenario = generate_scenario(B.COR_2_3, 903, 0, field=COMPLEX)
    f, e = scenario.f, scenario.reference.e
    m, M = scenario.bounds[0].params.m, scenario.bounds[0].params.M
    grid = f.grid
    band = B.check_band(f, e, m, M, form)
    band_profile = B.check_band(f, e, ScalarProfile.constant(grid, m),
                                ScalarProfile.constant(grid, M), form)
    assert band.slack_profile.tobytes() == band_profile.slack_profile.tobytes()
    assert band.holds == band_profile.holds
    ball = B.check_ball(f, e, 0.9)
    ball_profile = B.check_ball(f, e, ScalarProfile.constant(grid, 0.9))
    assert ball.slack_profile.tobytes() == ball_profile.slack_profile.tobytes()
    assert (B.check_ball(f, e, np.float32(0.5)).slack_profile.tobytes()
            == B.check_ball(f, e, ScalarProfile.constant(grid, 0.5)).slack_profile.tobytes())


@pytest.mark.parametrize("value, message", [
    (-0.5, r"^radius is negative: -0.5$"),
    (np.full(3, 0.5), r"^radius must be a profile or a number, got array"),
    (True, r"^radius must be a profile or a number, got True$"),
    ("0.5", r"^radius must be a profile or a number, got '0.5'$"),
])
def test_checkers_reject_what_a_constant_profile_rejects(value, message):
    scenario = generate_scenario(B.COR_2_2, 903, 0, field=REAL)
    f, e = scenario.f, scenario.reference.e
    with pytest.raises(InputError, match=message):
        B.check_ball(f, e, value)
    with pytest.raises(InputError, match=message.replace("radius", "m")):
        B.check_band(f, e, value, 2.0)
    with pytest.raises(InputError):
        ScalarProfile.constant(f.grid, -0.5)


# --------------------------------------------------------------------------
# equality recipes that are not finite

@pytest.mark.parametrize("bound_id, problem", [(B.COR_2_5, "overflows"),
                                               (B.COR_2_3, "is not finite")])
def test_non_finite_recipe_is_an_input_error(bound_id, problem):
    with pytest.raises(InputError, match=rf"^{bound_id} equality recipe at m=1.0, "
                                         rf"M=1e\+300 {problem}"):
        extremal_scenario(bound_id, {"m": 1.0, "M": 1e300})
    assert all(map(math.isfinite, cone_recipe(bound_id, {"m": 1.0, "M": 1e50})))


@pytest.mark.parametrize("bound_id, problem", [(B.COR_2_5, "overflows"),
                                               (B.COR_2_3, "is not finite")])
def test_cli_extremal_exits_3_on_a_non_finite_recipe(bound_id, problem, capsys):
    assert main(["extremal", "--bound", bound_id, "--m", "1", "--M", "1e300"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bound_id} equality recipe at m=1.0, M=1e+300 {problem}")


@pytest.mark.parametrize("bound_id, problem", [(B.COR_2_5, "overflows"),
                                               (B.COR_2_3, "is not finite")])
def test_cli_sweep_skips_non_finite_recipes(bound_id, problem, capsys):
    assert main(["sweep", "--bound", bound_id, "--param", "M", "--from", "4",
                 "--to", "1e300", "--steps", "3"]) == 0
    out, err = capsys.readouterr()
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["4.0"]
    warnings = err.splitlines()
    assert len(warnings) == 2
    for line, value in zip(warnings, ["5e+299", "1e+300"]):
        assert line.startswith(f"warning: M={value} skipped: {bound_id} equality recipe "
                               f"at m=1.0, M={value} {problem}")


# --------------------------------------------------------------------------
# f is built under run()'s floating-point guard

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_function_build_error_is_a_degeneracy_error():
    grid = Grid(0.0, 1.0, 64)
    e, u = basis_vector(REAL, 2, 0), basis_vector(REAL, 2, 1)
    entry = BoundEntry(B.COR_2_3, B.BoundParams(m=1.0, M=4.0))
    scenario = Scenario("inf-cone", REAL, 2, grid, FunctionSpec.cone(e, u, math.inf, 0.3),
                        B.Reference(B.REF_UNIT, e=e), (entry,))
    with pytest.raises(DegeneracyError,
                       match=r"^\[inf-cone:function\] floating-point invalid value"):
        run(scenario)


def test_function_input_error_names_the_function_stage():
    grid = Grid(0.0, 1.0, 64)
    e, u = basis_vector(REAL, 2, 0), basis_vector(REAL, 2, 1)
    entry = BoundEntry(B.COR_2_3, B.BoundParams(m=1.0, M=4.0))
    long_e = HVector(REAL, 2.0 * e.coords)
    scenario = Scenario("long-cone", REAL, 2, grid, FunctionSpec.cone(long_e, u, 1.0, 0.3),
                        B.Reference(B.REF_UNIT, e=e), (entry,))
    with pytest.raises(InputError, match=r"^\[long-cone:function\] cone e must be a unit"):
        run(scenario)
