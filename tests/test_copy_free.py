"""The copy-free node path: grid functions and profiles adopt arrays that nothing else
can write, and builders fill their output one node block at a time.  The builds and the
residual kernels are checked against whole-array expressions (kept here as the
reference), bit for bit and with numpy's floating-point error texts.
Also: flat ingestion of nested number lists, and band constants whose product
underflows."""

from __future__ import annotations

import json
import math
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from revtri import bounds as B
from revtri.cli import main
from revtri.errors import InputError
from revtri.gridfn import (
    _JSON_ARRAYS,
    _JSON_NUMBERS,
    FunctionSpec,
    Grid,
    GridFunction,
    ScalarProfile,
    materialize,
    number_array,
    profile_of,
    row_norms,
)
from revtri.hilbert import COMPLEX, REAL, HVector, check_orthonormal
from revtri.quadrature import defect
from revtri.scenario import _NODE_BLOCK, run, scenario_from_dict


def _frame(rng, field: str, d: int, n: int) -> list[HVector]:
    a = rng.standard_normal((d, n))
    if field == COMPLEX:
        a = a + 1j * rng.standard_normal((d, n))
    q, _ = np.linalg.qr(a)
    return [HVector(field, q[:, i]) for i in range(n)]


def _slack_bytes(report) -> bytes:
    subs = report.sub_reports or ()
    return b"".join(r.slack_profile.tobytes() for r in (report, *subs))


def _outcome(fn, *args):
    """The result's bytes (all slack profiles of a report), or the FloatingPointError
    message."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            out = fn(*args)
        except FloatingPointError as exc:
            return str(exc)
    if isinstance(out, B.HypothesisReport):
        return _slack_bytes(out)
    if isinstance(out, list):
        return b"".join(np.asarray(r).tobytes() for r in out)
    return out.dtype.str, out.shape, out.tobytes()


# --------------------------------------------------------------------------
# builders in node blocks

def _whole_cone(grid, e, u, alpha, beta):
    s = np.ones(grid.n_nodes)
    s[grid.n_panels // 2 + 1:] = -1.0
    return alpha * e[None, :] + s[:, None] * (beta * u[None, :])


def _whole_ball(grid, e, u, v, rho, omega):
    t = grid.nodes()
    circle = np.cos(omega * t)[:, None] * u[None, :] + np.sin(omega * t)[:, None] * v[None, :]
    return e[None, :] + rho * circle


def _whole_curve(r, phi):
    return (r.values * np.exp(1j * phi.values))[:, None]


#: Panel counts whose midpoint node ends a node block, starts one, or lies inside one,
#: and whose last block is full, partial or a single node.
PANELS = [2 * _NODE_BLOCK - 2, 2 * _NODE_BLOCK, 2 * _NODE_BLOCK + 2, 12290, 65536]


@pytest.mark.parametrize("n_panels", PANELS)
def test_curve_build_equals_the_broadcast_formula(n_panels):
    grid = Grid(0.0, 1.0, n_panels)
    rng = np.random.default_rng(n_panels)
    special = rng.uniform(0.0, 2.0, grid.n_nodes)
    special[::7] = 0.0
    special[1::11] = -0.0
    angles = rng.uniform(-50.0, 50.0, grid.n_nodes)
    angles[::5] = -0.0
    angles[2::13] = 1e300
    for r, phi in [({"linear": [0.9, 1.1]}, {"linear": [0.9, 0.7]}),
                   ({"sinusoid": [1.0, 0.1, 4.0]}, {"sinusoid": [0.8, 0.1, 6.0]}),
                   ({"samples": special.tolist()}, {"samples": angles.tolist()})]:
        r, phi = profile_of(r, grid), profile_of(phi, grid, nonnegative=False)
        f = materialize(FunctionSpec.complex_curve(r, phi), grid, COMPLEX, 1)
        assert f.values.tobytes() == _whole_curve(r, phi).tobytes()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n_panels", PANELS)
def test_cone_and_ball_builds_equal_the_broadcast_formulas_across_blocks(n_panels, field):
    grid = Grid(-1.0, 2.0, n_panels)
    rng = np.random.default_rng(n_panels + 1)
    e, u, v = _frame(rng, field, 4, 3)
    for alpha, beta in [(1.05, 0.3), (0.7, -0.0)]:
        f = materialize(FunctionSpec.cone(e, u, alpha, beta), grid, field, 4)
        assert f.values.tobytes() == _whole_cone(grid, e.coords, u.coords, alpha,
                                                 beta).tobytes()
    f = materialize(FunctionSpec.ball_perturbation(e, 0.4, 9.5, u, v), grid, field, 4)
    assert f.values.tobytes() == _whole_ball(grid, e.coords, u.coords, v.coords, 0.4,
                                             9.5).tobytes()


def _peak_bytes(build) -> tuple[int, int]:
    """The traced peak of ``build()`` above what was allocated before it, and the
    output's nbytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, f.values.nbytes


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_builds_allocate_their_output_and_block_scratch(field):
    grid = Grid(0.0, 1.0, 65536)
    grid.nodes()
    e, u, v = _frame(np.random.default_rng(3), field, 4, 3)
    r, phi = profile_of({"linear": [0.9, 1.1]}, grid), profile_of({"sinusoid": [0.8, 0.1, 6.0]},
                                                                  grid, nonnegative=False)
    node = grid.n_nodes * 8
    # the ball writes whole rows: its scratch is cos, sin and one product row, a complex
    # row (two node arrays) for a complex field, plus numpy's buffer for casting the
    # real cos and sin rows to complex
    ball_scratch = (4 if field == COMPLEX else 3) * node + 2 ** 18
    builds = [(lambda: materialize(FunctionSpec.ball_perturbation(e, 0.3, 7.0, u, v), grid,
                                   field, 4), ball_scratch),
              (lambda: materialize(FunctionSpec.cone(e, u, 1.0, 0.3), grid, field, 4), 2 ** 20)]
    if field == COMPLEX:
        builds.append((lambda: materialize(FunctionSpec.complex_curve(r, phi), grid, COMPLEX, 1),
                       2 ** 20))
    for build, scratch in builds:
        peak, nbytes = _peak_bytes(build)
        assert peak <= nbytes + scratch, (peak, nbytes)


# --------------------------------------------------------------------------
# ownership

def test_a_writable_caller_array_is_copied():
    grid = Grid(0.0, 1.0, 2 * _NODE_BLOCK)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((grid.n_nodes, 3))
    kept = x.copy()
    c = np.array([0.5, -1.0, 2.0])
    f = GridFunction(grid, REAL, x)
    tables = f.norms().copy(), f.distances(c).copy(), f.projections(c).copy()
    x[...] = 7.0
    assert f.values.tobytes() == kept.tobytes()
    assert not f.values.flags.writeable
    for got, want in zip((f.norms(), f.distances(c), f.projections(c)), tables):
        assert got.tobytes() == want.tobytes()
    fresh = GridFunction(grid, REAL, kept)
    assert f.distances(c).tobytes() == fresh.distances(c).tobytes()

    p = rng.uniform(0.0, 1.0, grid.n_nodes)
    profile = ScalarProfile(grid, p)
    p[...] = -1.0
    assert np.all(profile.values >= 0.0) and not profile.values.flags.writeable


def test_a_read_only_view_of_writable_memory_is_copied():
    grid = Grid(0.0, 1.0, 64)
    base = np.ones((grid.n_nodes, 2))
    view = base[:]
    view.setflags(write=False)
    f = GridFunction(grid, REAL, view)
    p = base[:, 0]
    p.setflags(write=False)
    profile = ScalarProfile(grid, p)
    base[...] = 3.0
    assert np.all(f.values == 1.0) and np.all(profile.values == 1.0)


def test_arrays_nothing_can_write_are_adopted():
    grid = Grid(0.0, 1.0, 64)
    e, u = _frame(np.random.default_rng(2), COMPLEX, 2, 2)
    f = materialize(FunctionSpec.cone(e, u, 1.0, 0.3), grid, COMPLEX, 2)
    assert GridFunction(grid, COMPLEX, f.values).values is f.values
    profile = profile_of({"sinusoid": [1.0, 0.5, 3.0]}, grid)
    assert ScalarProfile(grid, profile.values).values is profile.values
    # read-only, but of another dtype, or not laid out as a copy would be: copied
    single = np.ones(grid.n_nodes, dtype=np.float32)
    single.setflags(write=False)
    assert ScalarProfile(grid, single).values.dtype == np.float64
    strided = np.ones((2 * grid.n_nodes, 2))[::2]
    strided.setflags(write=False)
    assert GridFunction(grid, REAL, strided).values.T.flags.c_contiguous
    rows = np.ones((grid.n_nodes, 2))
    rows.setflags(write=False)
    copied = GridFunction(grid, REAL, rows).values
    assert copied is not rows and copied.T.flags.c_contiguous


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_parsed_samples_are_adopted(field):
    n = 16
    rows = ([[1.0, 0.25 * j] for j in range(n + 1)] if field == REAL
            else [[[1.0, 0.0], [0.25 * j, -0.0]] for j in range(n + 1)])
    e = [1.0, 0.0] if field == REAL else [[1.0, 0.0], [0.0, 0.0]]
    scenario = scenario_from_dict({
        "id": "adopt", "field": field, "d": 2, "interval": [0.0, 1.0], "N": n,
        "function": {"variant": "samples", "values": rows}, "reference": {"e": e},
        "bounds": [{"bound_id": "COR_2_2", "params": {"rho": 0.5}}], "tolerances": {}})
    assert scenario.f.values is scenario.function.params["values"]


# --------------------------------------------------------------------------
# residual kernels against the whole-array expressions

def _old_dominance(f, e, k):
    return f.norms() - f.projections(e.coords) - k


def _old_scaled(f, e, K):
    return f.norms() - K * f.projections(e.coords)


def _old_band_inner(f, e, m, M):
    p = f.projections(e.coords)
    q = f.norms() ** 2
    return q + m * M - (M + m) * p


def _old_band_norm(f, e, m, M):
    center = np.broadcast_to(0.5 * (M + m), f.values.shape[:1])
    return row_norms(f.values, e.coords, center) - 0.5 * (M - m)


def _old_box(f, alpha, beta, m, M):
    x, y = f.values[:, 0].real, f.values[:, 0].imag
    return np.max(np.stack([m * alpha - x, x - M * alpha, m * beta - y, y - M * beta]),
                  axis=0)


def _old_band_gap(m, M):
    total = M + m
    out = np.zeros_like(total)
    np.divide((M - m) ** 2, total, out=out, where=total > 0.0)
    return out


def _values(x):
    return x.values if isinstance(x, ScalarProfile) else np.asarray(x, dtype=np.float64)


def _rows(rng, n: int, d: int, field: str, scale: float) -> np.ndarray:
    x = rng.standard_normal((n, d))
    if field == COMPLEX:
        x = x + 1j * rng.standard_normal((n, d))
    x[n // 3] *= scale          # large rows in the first and the last node block
    x[-2] *= scale
    x[5] = -0.0
    return x


#: (scale of two rows of f, m, M): kernel operations overflow, and in some cases two of
#: them do, so the first one in numpy's order must be reported.
BANDS = [
    (1.0, 0.5, 2.0),
    (1e150, 1.0, 1e200),      # (M + m) p overflows
    (1e150, 1e160, 4e160),    # m M overflows first
    (1e153, 1.0, 1.5e154),    # (M - m)^2 overflows, in band_gap_integrand only
    (1.0, 1e307, 1.7e308),    # m M and M + m overflow
    (1.0, 0.0, 0.0),
]


def _constants(grid, rng, m, M, profile: bool):
    """m and M as numbers, or as profiles varying around them with M >= m."""
    if not profile:
        return m, M
    m_p = ScalarProfile(grid, m * rng.uniform(0.9, 1.0, grid.n_nodes))
    return m_p, ScalarProfile(grid, np.maximum(M * rng.uniform(0.9, 1.0, grid.n_nodes),
                                               m_p.values))


@pytest.mark.parametrize("profile", [False, True], ids=["number", "profile"])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("scale, m, M", BANDS)
def test_unit_kernels_equal_the_whole_expressions(scale, m, M, field, profile):
    rng = np.random.default_rng(11)
    grid = Grid(0.0, 1.0, 2 * _NODE_BLOCK + 4)
    e, = _frame(rng, field, 3, 1)
    f = GridFunction(grid, field, _rows(rng, grid.n_nodes, 3, field, scale))
    m, M = _constants(grid, rng, m, M, profile)
    m_v, M_v = _values(m), _values(M)
    for form, old in [("inner", _old_band_inner), ("norm", _old_band_norm)]:
        assert (_outcome(lambda: B.check_band(f, e, m, M, form))
                == _outcome(lambda: [old(f, e, m_v, M_v)]))
    assert (_outcome(lambda: B.check_dominance(f, e, M))
            == _outcome(lambda: [_old_dominance(f, e, M_v)]))
    K = max(M_v.max(), 1.0)
    assert (_outcome(lambda: B.check_scaled_dominance(f, e, float(K)))
            == _outcome(lambda: [_old_scaled(f, e, float(K))]))
    assert _outcome(B.band_gap_integrand, m_v, M_v) == _outcome(_old_band_gap, m_v, M_v)


@pytest.mark.parametrize("profile", [False, True], ids=["number", "profile"])
@pytest.mark.parametrize("scale, m, M", BANDS)
def test_box_kernel_equals_the_stacked_max(scale, m, M, profile):
    rng = np.random.default_rng(12)
    grid = Grid(0.0, 1.0, 2 * _NODE_BLOCK + 4)
    z = _rows(rng, grid.n_nodes, 1, COMPLEX, scale)
    z[7] = complex(np.nan, 1.0)
    f = GridFunction(grid, COMPLEX, z)
    m, M = _constants(grid, rng, m, M, profile)
    alpha, beta = math.cos(0.8), math.sin(0.8)
    e = HVector(COMPLEX, [complex(alpha, beta)])

    def old():
        box = _old_box(f, alpha, beta, _values(m), _values(M))
        return [box, _old_band_inner(f, e, _values(m), _values(M))]
    assert _outcome(lambda: B.check_box_complex(f, alpha, beta, m, M)) == _outcome(old)


@pytest.mark.parametrize("profile", [False, True], ids=["number", "profile"])
def test_a_subtraction_overflow_comes_after_the_operations_before_it(profile):
    rng = np.random.default_rng(14)
    grid = Grid(0.0, 1.0, 2 * _NODE_BLOCK + 4)
    e = HVector(REAL, [1.0, 0.0, 0.0])
    x = np.ones((grid.n_nodes, 3))
    x[-2, 0] = -1.2e154    # ||f||^2 + m M = 1.44e308 minus (M + m) Re<f, e> ~ -1e308
    f = GridFunction(grid, REAL, x)
    m, M = _constants(grid, rng, 1.0, 0.83e154, profile)
    assert (_outcome(lambda: B.check_band(f, e, m, M, "inner"))
            == _outcome(lambda: [_old_band_inner(f, e, _values(m), _values(M))])
            == "overflow encountered in subtract")
    z = np.ones((grid.n_nodes, 1), dtype=complex)
    z[-2] = -1.7e308       # m alpha - Re f overflows
    f = GridFunction(grid, COMPLEX, z)
    m, M = _constants(grid, rng, 1.4e308, 1.5e308, profile)
    alpha, beta = math.cos(0.8), math.sin(0.8)
    assert (_outcome(lambda: B.check_box_complex(f, alpha, beta, m, M))
            == _outcome(lambda: [_old_box(f, alpha, beta, _values(m), _values(M))])
            == "overflow encountered in subtract")


def test_band_gap_of_constants_and_of_non_positive_sums():
    m = np.array([0.0, -0.0, 1.0, -3.0, 2.0])
    M = np.array([0.0, 0.0, 4.0, -1.0, 2.0])
    assert _outcome(B.band_gap_integrand, m, M) == _outcome(_old_band_gap, m, M)
    for m0, M0 in [(1.0, 4.0), (0.0, 0.0)]:
        assert (_outcome(B.band_gap_integrand, np.asarray(m0), np.asarray(M0))
                == _outcome(_old_band_gap, np.asarray(m0), np.asarray(M0)))
    assert (_outcome(B.band_gap_integrand, np.asarray(1.0), M + 2.0)
            == _outcome(_old_band_gap, np.asarray(1.0), M + 2.0))


def _family_context(field, scale, n=3):
    rng = np.random.default_rng(13)
    grid = Grid(0.0, 1.0, 2 * _NODE_BLOCK + 4)
    family = check_orthonormal(tuple(_frame(rng, field, 4, n)))
    f = GridFunction(grid, field, _rows(rng, grid.n_nodes, 4, field, scale))
    with np.errstate(all="ignore"):
        est = defect(f)
    ref = B.Reference(B.REF_FAMILY, family=family)
    return B._Context(f, est, ref, None, None, []), grid, rng


def _family_hypothesis(c, bound_id, params):
    """The hypothesis report of a family row, as ``bounds.evaluate`` judges it."""
    spec = B.BOUNDS[bound_id]
    stacks = B._family_stacks(spec, c.f, c.ref.family,
                              [getattr(params, q.field) for q in spec.params])
    return B._hypotheses(spec.shape, stacks, B.DEFAULT_HYP_TOL, family=True, kernels=True)[0]


def _old_family(residuals):
    residuals = [np.asarray(r, dtype=np.float64) for r in residuals]
    return [np.max(np.stack(residuals), axis=0), *residuals]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("scale, m, M", [band for band in BANDS if band[1] > 0.0])
def test_family_kernels_equal_the_whole_expressions(scale, m, M, field):
    c, grid, rng = _family_context(field, scale)
    ms = (m, 0.5 * m, m)
    Ms = (M, M, 2.0 * M if M < 1e308 else M)
    params = B.BoundParams(ms=ms, Ms=Ms)

    def old_cor_3_3():
        q, proj = c.f.norms() ** 2, c.f.projections(c.ref.family.matrix())
        return _old_family([q + a * b - (b + a) * proj[:, i]
                            for i, (a, b) in enumerate(zip(ms, Ms))])
    assert _outcome(_family_hypothesis, c, B.COR_3_3, params) == _outcome(old_cor_3_3)

    ks = tuple(ScalarProfile(grid, M * rng.uniform(0.5, 1.0, grid.n_nodes)) for _ in range(3))
    params = B.BoundParams(dominance_profiles=ks)

    def old_thm_3_1():
        norms, proj = c.f.norms(), c.f.projections(c.ref.family.matrix())
        return _old_family([norms - proj[:, i] - k.values for i, k in enumerate(ks)])
    assert _outcome(_family_hypothesis, c, B.THM_3_1, params) == _outcome(old_thm_3_1)


def test_a_single_member_family_keeps_its_own_combined_profile():
    c, _, _ = _family_context(REAL, 1.0, n=1)
    hyp = _family_hypothesis(c, B.COR_3_3, B.BoundParams(ms=(0.5,), Ms=(2.0,)))
    assert hyp.slack_profile.tobytes() == hyp.sub_reports[0].slack_profile.tobytes()
    assert hyp.slack_profile is not hyp.sub_reports[0].slack_profile


# --------------------------------------------------------------------------
# flat ingestion

def _old_number_array(data, shape):
    """One numpy conversion, then C-level passes over the types."""
    try:
        arr = np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.shape != shape:
        return None
    level = [data]
    for _ in shape:
        if not set(map(type, level)) <= _JSON_ARRAYS:
            return None
        level = list(chain.from_iterable(level))
    return arr if set(map(type, level)) <= _JSON_NUMBERS else None


def _nested(rng, shape):
    """Nested lists of floats over the whole exponent range, signed zeros, subnormals
    and integers, some beyond 2**53."""
    size = int(np.prod(shape))
    flat = [float(v) for v in rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)]
    for i in range(0, size, 4):
        flat[i] = int(rng.integers(-2 ** 62, 2 ** 62)) * 3
    flat[:2] = [-0.0, 5e-324]
    return np.array(flat, dtype=object).reshape(shape).tolist()


def _cases():
    rng = np.random.default_rng(21)
    good = {shape: _nested(rng, shape) for shape in [(5,), (4, 3), (3, 2, 2), (1, 1, 2)]}
    yield from good.items()
    rows = good[(4, 3)]
    yield (4, 3), rows[:3] + [rows[3] + [1.0]]
    yield (4, 3), [rows[0] + [1.0], rows[1][:2]] + rows[2:]       # ragged, right total
    yield (4, 3), [tuple(r) for r in rows]
    yield (4, 3), [r[:2] + [True] for r in rows]
    yield (4, 3), rows[:3] + [[1.0, "2", 3.0]]
    yield (4, 3), rows[:3] + [[1.0, None, 3.0]]
    yield (4, 3), rows[:3] + [[1.0, np.float64(2.0), 3.0]]
    yield (4, 3), rows[:3] + [[1.0, 10 ** 400, 3.0]]
    yield (4, 3), rows[:3] + [[1.0, -(10 ** 309), 3.0]]
    yield (4, 3), rows[:3] + [[1.0, [2.0], 3.0]]
    yield (4, 3), rows[:3] + [np.array([1.0, 2.0, 3.0])]
    yield (4, 3), rows[:3]
    yield (3, 4), rows
    yield (4,), [1, 2 ** 63, -(2 ** 64) - 1, 10 ** 300]
    yield (), 2.5
    yield (), True
    yield (0,), []
    yield (0, 2), []
    yield (2, 0), [[], []]
    yield (2,), "ab"
    yield (2,), {"a": 1, "b": 2}


@pytest.mark.parametrize("shape, data", list(_cases()))
def test_flat_ingestion_equals_the_numpy_conversion(shape, data):
    got, want = number_array(data, shape), _old_number_array(data, shape)
    if want is None:
        assert got is None
        return
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert not got.flags.writeable
    owner = got if got.base is None else got.base
    assert owner.base is None and not owner.flags.writeable


# --------------------------------------------------------------------------
# band constants whose product underflows

TINY = {"m": 1e-200, "M": 1e-200}


def _tiny_band_file(bound_id: str) -> dict:
    """A small closed-form file with one band bound at m = M = 1e-200."""
    e = [1.0, 0.0, 0.0]
    data = {"id": "tiny", "field": "real", "d": 3, "interval": [0.0, 1.0], "N": 16,
            "function": {"variant": "cone", "e": e, "u": [0.0, 1.0, 0.0], "alpha": 1.0,
                         "beta": 0.3},
            "reference": {"e": e}, "bounds": [{"bound_id": bound_id, "params": TINY}],
            "tolerances": {}}
    if bound_id == "PROP_4_2":
        data.update(field="complex", d=1, function={"variant": "complex_curve", "r": 1.0,
                                                    "phi": 0.7},
                    reference={"alpha_beta": [math.cos(0.7), math.sin(0.7)]})
    if bound_id == "COR_3_3":
        data.update(function={"variant": "family_symmetric", "family": [e], "c": 1.0},
                    reference={"family": [e]},
                    bounds=[{"bound_id": bound_id, "params": {"m_i": [1e-200],
                                                              "M_i": [1e-200]}}])
    return data


def test_band_coefficient_names_constants_whose_product_underflows():
    with pytest.raises(InputError, match=r"^band coefficient at m=1e-200, M=1e-200 is "
                                          r"undefined: m\*M underflows to 0$"):
        B.band_coefficient(1e-200, 1e-200)
    m, M = 1e-160, 4e-160   # a subnormal product keeps the formula
    assert B.band_coefficient(m, M) == (math.sqrt(M) - math.sqrt(m)) ** 2 / (
        2.0 * math.sqrt(m * M))


@pytest.mark.parametrize("bound_id", ["COR_2_3", "MULT_C", "PROP_4_2", "COR_3_3"])
def test_cli_check_exits_3_on_underflowing_band_constants(bound_id, tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(_tiny_band_file(bound_id)), encoding="utf-8")
    with pytest.raises(InputError, match=rf"^\[tiny:{bound_id}\] band coefficient"):
        run(scenario_from_dict(_tiny_band_file(bound_id)))
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: [tiny:{bound_id}] band coefficient at m=1e-200, M=1e-200 is undefined")


def test_cli_extremal_exits_3_on_underflowing_band_constants(capsys):
    assert main(["extremal", "--bound", "COR_2_3", "--m", "1e-200", "--M", "1e-200"]) == 3
    assert capsys.readouterr().err.startswith(
        "error: band coefficient at m=1e-200, M=1e-200 is undefined")


def test_cli_sweep_skips_underflowing_band_constants(tmp_path, capsys):
    base = _tiny_band_file("COR_2_3")
    base["bounds"][0]["params"] = {"m": 1e-200, "M": 1.0}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    assert main(["sweep", "--bound", "COR_2_3", "--param", "M", "--from", "1e-200",
                 "--to", "4", "--steps", "2", "--base", str(path)]) == 0
    out, err = capsys.readouterr()
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["4.0"]
    assert err.splitlines() == ["warning: M=1e-200 skipped: band coefficient at m=1e-200, "
                                "M=1e-200 is undefined: m*M underflows to 0"]


# --------------------------------------------------------------------------
# complex integrals against the cast weights

@pytest.mark.parametrize("n_panels", [16, 2 * _NODE_BLOCK, 12290, 65536])
def test_complex_weights_give_the_products_with_cast_weights(n_panels):
    from revtri import quadrature as Q
    rng = np.random.default_rng(n_panels)
    h = 1.0 / n_panels
    for d in range(1, 9):
        z = rng.standard_normal((n_panels + 1, d)) + 1j * rng.standard_normal((n_panels + 1, d))
        for rule in Q.RULES:
            for values, n, step in [(z, n_panels, h), (z[::2], n_panels // 2, 2.0 * h)]:
                got = Q._weighted_sum(values, None, n, step, rule)
                # each column times the real weights, cast to complex, summed pairwise
                w = Q.panel_weights(rule, n, step)
                want = np.array([np.add.reduce(values[:, k] * w) for k in range(d)])
                assert got.tobytes() == want.tobytes(), (d, rule, n)
