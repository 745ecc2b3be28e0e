"""Node geometry once per function: the row-norm kernel adds each column's squares in
column order, which below 8 columns is ``np.linalg.norm(x, axis=1)`` bit for bit (for a
function whose squares all underflow, of its values scaled by a power of two); node
norms, distances to a center and projections onto a reference are computed once per
function and shared read-only; the integrals of Re f and Im f, and a
sinusoid profile's sin table, once per function and grid.  Reports at large N equal,
byte for byte, those of the per-bound numpy computation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revtri import bounds as B
from revtri import gridfn
from revtri.cli import main
from revtri.errors import DegeneracyError
from revtri.extremal import extremal_scenario
from revtri.gridfn import (
    GRID_CACHE,
    Grid,
    GridFunction,
    _sin_table,
    grid_nodes,
    profile_of,
    row_norms,
)
from revtri.hilbert import COMPLEX, REAL
from revtri.quadrature import defect, integrate_trials
from revtri.scenario import (
    report_to_csv,
    report_to_json,
    run,
    scenario_from_dict,
)
from revtri.sweep import sweep, sweep_to_csv

from .conftest import patch_shape


def _numpy_norms(x: np.ndarray, c: np.ndarray | None = None,
                 s: np.ndarray | None = None) -> np.ndarray:
    """``row_norms`` as numpy computes it: the norms of the rows of x, x - c or x - s c."""
    if c is not None:
        x = x - (c[None, :] if s is None else s[:, None] * c[None, :])
    return np.linalg.norm(x, axis=1)


def _column_norms(x: np.ndarray, c: np.ndarray | None = None,
                  s: np.ndarray | None = None) -> np.ndarray:
    """``row_norms`` as a per-column formula: the squares of column j of x, x - c or
    x - s c, numpy's ``(v.conj() * v).real``, added to the running sum in column order."""
    total = np.zeros(x.shape[0])
    for j in range(x.shape[1]):
        v = x[:, j] if c is None else x[:, j] - (c[j] if s is None else s * c[j])
        total += (v.conj() * v).real
    return np.sqrt(total)


def _rescaled(norms):
    """``norms`` as ``row_norms`` applies it to one function: when every row norm lies
    below 2**-511 (its square below the smallest normal float, 2**-1022) and some value is
    not zero, the norms of x scaled by 2**-k, k the exponent of its largest magnitude,
    scaled back by 2**k."""
    def fn(x: np.ndarray) -> np.ndarray:
        big = float(np.abs(x).max()) if x.size else 0.0
        if not (x.size and _column_norms(x).max() < 2.0 ** -511 and big > 0.0):
            return norms(x)
        k = math.frexp(big)[1]
        scaled = np.empty_like(x)
        if np.iscomplexobj(x):
            scaled.real, scaled.imag = np.ldexp(x.real, -k), np.ldexp(x.imag, -k)
        else:
            scaled[...] = np.ldexp(x, -k)
        return np.ldexp(norms(scaled), k)
    return fn


#: Below this many columns ``np.linalg.norm(x, axis=1)`` sums a row in column order.
PAIRWISE_COLUMNS = 8


def _outcome(fn, x: np.ndarray):
    """The result's dtype, shape and bytes, or the FloatingPointError message."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            out = fn(x)
        except FloatingPointError as exc:
            return str(exc)
    return out.dtype.str, out.shape, out.tobytes()


# --------------------------------------------------------------------------
# the row-norm kernel

_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=5e153, max_value=2e154),   # squares finite, sums may overflow
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
                     1e154, -1.2e154, 1.34e154, 1e308]),
)


def _layout(arr: np.ndarray, layout: str) -> np.ndarray:
    """``arr`` with the same values in C order, Fortran order or as a strided view."""
    if layout == "C":
        return np.ascontiguousarray(arr)
    if layout == "F":
        return np.asfortranarray(arr)
    big = np.zeros((3 * arr.shape[0], 2 * arr.shape[1]), dtype=arr.dtype)
    big[::3, ::2] = arr
    return big[::3, ::2]


@st.composite
def _matrices(draw) -> np.ndarray:
    d = draw(st.integers(1, 16))
    n = draw(st.integers(1, 12))
    field = draw(st.sampled_from([REAL, COMPLEX]))
    parts = 2 if field == COMPLEX else 1
    flat = np.array(draw(st.lists(_ENTRIES, min_size=parts * n * d, max_size=parts * n * d)))
    if field == COMPLEX:
        arr = np.empty((n, d), dtype=np.complex128)
        arr.real, arr.imag = flat[::2].reshape(n, d), flat[1::2].reshape(n, d)
    else:
        arr = flat.reshape(n, d)
    return _layout(arr, draw(st.sampled_from(["C", "F", "strided"])))


@settings(max_examples=300, deadline=None)
@given(x=_matrices())
@example(x=np.array([[1.2e154, 1.2e154, 1e200]]))   # numpy: multiply; row_norms: add
@example(x=np.array([[1e-160, 5e-324], [0.0, -1e-170]]))   # every square underflows
@example(x=np.array([[5.294643744808353e+153 + 1e154j]]))   # a one-entry complex product
def test_row_norms_are_numpy_bit_for_bit(x):
    got = _outcome(row_norms, x)
    assert got == _outcome(_rescaled(_column_norms), x)
    expected = _outcome(_rescaled(_numpy_norms), x)
    if isinstance(expected, str):
        # numpy squares every entry before it adds; row_norms squares and adds a column
        # at a time, so an overflow of the same kind may be named "add" where numpy
        # names its reduction or, when a later column's square overflows too, "multiply"
        assert isinstance(got, str) and got.split(" in ")[0] == expected.split(" in ")[0]
        assert got == expected or got == expected.replace("reduce", "add") \
            or got.endswith(" in add") and expected.endswith(" in multiply")
    elif x.shape[1] < PAIRWISE_COLUMNS:   # the same sums as numpy's
        assert got == expected


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_row_norms_at_large_n(field, layout):
    rng = np.random.default_rng(11)
    for d in range(1, 17):
        shape = (65537, d)
        arr = rng.standard_normal(shape) * np.exp(rng.uniform(-40.0, 40.0, shape))
        if field == COMPLEX:
            arr = arr + 1j * rng.standard_normal(shape)
        x = _layout(arr, layout)
        want = _numpy_norms if d < PAIRWISE_COLUMNS else _column_norms
        assert _outcome(row_norms, x) == _outcome(want, x), d


def test_stacked_functions_rescale_tiny_norms_one_at_a_time():
    """In one pass over T stacked functions, each function whose squares all underflow is
    rescaled on its own; the others keep numpy's bits, and zeros keep zero norms."""
    grid = Grid(0.0, 1.0, 16)
    base = np.random.default_rng(12).standard_normal((grid.n_nodes, 3))
    scales = (0, -1060, None, -600, 0)
    fs = [GridFunction(grid, REAL, np.zeros_like(base) if k is None else np.ldexp(base, k))
          for k in scales]
    values = np.stack([f.values.T for f in fs])
    norms = row_norms(values.transpose(0, 2, 1))   # as a fuzz chunk computes them
    integrate_trials(fs, values, norms)
    for f, k, got in zip(fs, scales, norms):
        want = _rescaled(_numpy_norms)(f.values)
        assert got.tobytes() == want.tobytes()
        if k == 0:
            assert want.tobytes() == _numpy_norms(f.values).tobytes()
        elif k is not None:
            assert (got > 0.0).all()
            est = defect(f)
            assert est.value >= -est.err_est


def test_a_subnormal_equality_case_has_no_negative_defect(capsys):
    """THM_3_1's family extremal at c = 1e-320: the squares of its node values underflow to
    0, so its norm integral was 0 and its defect -1.0005e-320 (err 1.976e-323)."""
    report = run(extremal_scenario(B.THM_3_1, {"c": 1e-320}, n_panels=16))
    assert report.defect.value >= -report.defect.err_est
    assert report.results[0].lhs > 0.0 and report.results[0].verdict == B.HOLDS
    assert main(["extremal", "--bound", B.THM_3_1, "--c", "1e-320", "--panels", "16"]) == 0
    assert f"lhs={report.results[0].lhs!r}" in capsys.readouterr().out


@pytest.mark.parametrize("value, message", [
    (1.2e154, "overflow encountered in reduce"),     # every square finite, the sum not
    (1e200, "overflow encountered in multiply"),
])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_row_norms_raise_numpys_overflow(value, message, field):
    x = np.full((5, 3), value, dtype=np.complex128 if field == COMPLEX else np.float64)
    if field == COMPLEX:
        x.imag = value
        message = "overflow encountered in multiply"   # a complex square adds inside multiply
    assert _outcome(_numpy_norms, x) == message
    # row_norms adds one column at a time: numpy's overflowing reduction is its "add"
    assert _outcome(row_norms, x) == _outcome(_column_norms, x) == message.replace(
        "reduce", "add")


@pytest.mark.parametrize("d", [1, 5, PAIRWISE_COLUMNS, 11])
def test_row_norms_take_a_center_and_node_scales(d):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((4097, d)) + 1j * rng.standard_normal((4097, d))
    e = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    scale = rng.uniform(0.5, 2.0, 4097)
    dist = row_norms(values, e, scale)
    if d < PAIRWISE_COLUMNS:
        assert dist.tobytes() == np.linalg.norm(values - scale[:, None] * e[None, :],
                                                axis=1).tobytes()
        assert row_norms(values, e).tobytes() == np.linalg.norm(values - e[None, :],
                                                                axis=1).tobytes()
    else:
        assert dist.tobytes() == _column_norms(values, e, scale).tobytes()
        assert row_norms(values, e).tobytes() == _column_norms(values, e).tobytes()


# --------------------------------------------------------------------------
# large-N reports against the per-bound numpy computation

N_LARGE = 65536


def _frame(field: str, d: int, n: int, seed: int) -> list[np.ndarray]:
    """n orthonormal vectors of K^d."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, n))
    if field == COMPLEX:
        a = a + 1j * rng.standard_normal((d, n))
    q, _ = np.linalg.qr(a)
    return [q[:, i] for i in range(n)]


def _coords(field: str, v: np.ndarray) -> list:
    if field == REAL:
        return [float(x) for x in np.real(v)]
    return [[float(x.real), float(x.imag)] for x in v]


UNIT_BOUNDS = [
    {"bound_id": "THM_2_1", "params": {"k": {"sinusoid": [0.3, 0.1, 5.0]}}},
    {"bound_id": "COR_2_2", "params": {"rho": 0.6}},
    {"bound_id": "COR_2_3", "params": {"m": 0.5, "M": 2.0}},
    {"bound_id": "COR_2_4", "params": {"r": {"linear": [0.4, 0.5]}}},
    {"bound_id": "COR_2_5", "params": {"m": {"linear": [0.4, 0.5]},
                                       "M": {"linear": [1.6, 1.9]}}},
    {"bound_id": "MULT_A", "params": {"K": 1.3}},
    {"bound_id": "MULT_B", "params": {"rho": 0.6}},
    {"bound_id": "MULT_C", "params": {"m": 0.5, "M": 2.0}},
]


def _file(sid, field, d, function, reference, bounds) -> dict:
    return {"id": sid, "field": field, "d": d, "interval": [0.0, 1.0], "N": N_LARGE,
            "function": function, "reference": reference, "bounds": bounds,
            "tolerances": {}}


def _cone(field: str, d: int) -> dict:
    e, u = _frame(field, d, 2, seed=d)
    function = {"variant": "cone", "e": _coords(field, e), "u": _coords(field, u),
                "alpha": 1.05, "beta": 0.3}
    return _file(f"cone-{field}-{d}", field, d, function, {"e": _coords(field, e)},
                 UNIT_BOUNDS)


def _ball(field: str, d: int) -> dict:
    e, = _frame(field, d, 1, seed=10 + d)
    function = {"variant": "ball_perturbation", "e": _coords(field, e), "rho": 0.3,
                "omega": 7.0}
    return _file(f"ball-{field}-{d}", field, d, function, {"e": _coords(field, e)},
                 UNIT_BOUNDS)


def _family(field: str, d: int) -> dict:
    n = min(d, 3)
    family = [_coords(field, v) for v in _frame(field, d, n, seed=20 + d)]
    bounds = [
        {"bound_id": "THM_3_1", "params": {"M_i": [{"sinusoid": [0.5, 0.1, 3.0]}] * n}},
        {"bound_id": "COR_3_2", "params": {"rho_i": [0.9] * n}},
        {"bound_id": "COR_3_3", "params": {"m_i": [0.2] * n, "M_i": [3.0] * n}},
        {"bound_id": "COR_3_4", "params": {"r_i": [{"linear": [0.9, 1.0]}] * n}},
        {"bound_id": "COR_3_5", "params": {"m_i": [{"sinusoid": [0.1, 0.05, 3.0]}] * n,
                                           "M_i": [{"sinusoid": [2.0, 0.1, 3.0]}] * n}},
    ]
    function = {"variant": "family_symmetric", "family": family,
                "c": {"sinusoid": [0.9, 0.2, 3.0]}}
    return _file(f"family-{field}-{d}", field, d, function, {"family": family}, bounds)


def _curve(linear: bool) -> dict:
    if linear:
        r, phi = {"linear": [0.9, 1.1]}, {"linear": [0.8, 0.6]}
    else:
        r, phi = {"sinusoid": [1.0, 0.1, 4.0]}, {"sinusoid": [0.7, 0.1, 6.0]}
    bounds = [
        {"bound_id": "KARAMATA", "params": {"theta": 1.2}},
        {"bound_id": "PROP_4_1", "params": {"rho": 0.5}},
        {"bound_id": "PROP_4_2", "params": {"m": 0.5, "M": 2.0}},
        {"bound_id": "PROP_4_3", "params": {"k": {"constant": 0.5}, "K": {"constant": 2.0}}},
    ]
    function = {"variant": "complex_curve", "r": r, "phi": phi}
    return _file(f"curve-{'linear' if linear else 'sinusoid'}", COMPLEX, 1, function,
                 {"alpha_beta": [math.cos(0.7), math.sin(0.7)]}, bounds)


def _large_files() -> dict:
    files = {}
    for field in (REAL, COMPLEX):
        for d in (1, 2, 3, 4, 5, 8):
            builders = [_family] + [_cone] * (d >= 2) + [_ball] * (d >= 3)
            for build in builders:
                data = build(field, d)
                files[data["id"]] = data
    for linear in (False, True):
        data = _curve(linear)
        files[data["id"]] = data
    return files


LARGE_FILES = _large_files()


def _old_band_norm_residuals(f, e, m_vals, M_vals):
    center = 0.5 * (M_vals + m_vals)
    dist = np.linalg.norm(f.values - center[:, None] * e[None, :], axis=1)
    return dist - 0.5 * (M_vals - m_vals)


def _numpy_per_bound(monkeypatch) -> list:
    """Every row norm by ``np.linalg.norm(axis=1)``, and every node table, part
    integral and sin table computed afresh where it is used.  Returns the list that
    each call of the whole-array band-norm residuals appends to."""
    monkeypatch.setattr(gridfn, "row_norms", _numpy_norms)
    monkeypatch.setattr(gridfn.GridFunction, "cached", lambda self, key, compute: compute())
    monkeypatch.setattr(gridfn, "_sin_table",
                        lambda key, omega: np.sin(float.fromhex(omega) * grid_nodes(key)))
    calls = []

    def counting(rows, m_vals, M_vals):   # one row at a time, as run() judges its rows
        calls.append(rows)
        (f,), ((e,),) = rows.stacks.fs, rows.coords()
        return _old_band_norm_residuals(f, e, m_vals[0, 0], M_vals[0, 0])[None, None]
    patch_shape(monkeypatch, "_BAND_NORM", kernel=counting)
    return calls


def _texts(data: dict) -> str:
    report = run(scenario_from_dict(data))
    return report_to_json(report) + report_to_csv(report)


@pytest.mark.parametrize("name", sorted(LARGE_FILES))
def test_large_reports_equal_the_per_bound_numpy_computation(name, monkeypatch):
    data = LARGE_FILES[name]
    texts = _texts(data)
    with monkeypatch.context() as patched:
        calls = _numpy_per_bound(patched)
        assert _texts(data) == texts
    # once per band-norm check: COR_2_5, and COR_3_5 for each family member
    band_norm = {"COR_2_5": 1, "COR_3_5": len(data["reference"].get("family", ()))}
    assert len(calls) == sum(band_norm.get(b["bound_id"], 0) for b in data["bounds"])


def test_large_files_cover_every_bound_and_dimension():
    bounds = {b["bound_id"] for data in LARGE_FILES.values() for b in data["bounds"]}
    assert bounds == set(B.ALL_BOUND_IDS)
    for field in (REAL, COMPLEX):
        dims = {data["d"] for data in LARGE_FILES.values() if data["field"] == field}
        assert dims == {1, 2, 3, 4, 5, 8}


# --------------------------------------------------------------------------
# one table per (f, reference)

def _count_row_norms(monkeypatch) -> list:
    calls = []

    def counting(x, c=None, s=None):
        calls.append(x.shape)
        return row_norms(x, c, s)
    monkeypatch.setattr(gridfn, "row_norms", counting)
    return calls


@pytest.mark.parametrize("name, tables", [
    ("cone-real-3", 2),        # ||f|| and ||f - e|| for COR_2_2, COR_2_4 and MULT_B
    ("ball-complex-4", 2),
    ("family-real-5", 4),      # ||f|| and ||f - e_i|| for COR_3_2 and COR_3_4, n = 3
    ("family-complex-2", 3),
    ("curve-linear", 2),       # ||f|| and ||f - e|| for PROP_4_1
])
def test_one_distance_table_per_center_per_run(name, tables, monkeypatch):
    data = dict(LARGE_FILES[name], N=64)
    scenario = scenario_from_dict(data)
    calls = _count_row_norms(monkeypatch)
    run(scenario)
    assert len(calls) == tables
    run(scenario)   # a second run on the same f reads the same tables
    assert len(calls) == tables
    kept = [v for v in scenario.f._tables.values() if isinstance(v, np.ndarray)]
    assert kept and not any(v.flags.writeable for v in kept)


def test_tables_are_keyed_by_exact_bytes():
    scenario = scenario_from_dict(dict(LARGE_FILES["cone-real-3"], N=16))
    f, e = scenario.f, scenario.reference.e.coords
    dist = f.distances(e)
    assert f.distances(e.copy()) is dist
    with pytest.raises(ValueError):
        dist[0] = 0.0
    assert dist.tobytes() == _numpy_norms(f.values - e[None, :]).tobytes()
    zero = np.zeros(3)
    assert f.distances(zero) is not f.distances(-zero)
    want = _column_projections(f.values, e[None, :])[:, 0]
    assert f.projections(e).tobytes() == want.tobytes()
    family = np.stack([e, np.roll(e, 1)])
    assert f.projections(family).shape == (17, 2)
    assert f.projections(family) is f.projections(family.copy())


def _column_projections(values: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Re<f(t), e_i> for the rows e_i of ``refs`` as a per-column formula: the terms
    Re(conj(e_ik) f_k(t)) of column k added to the running sum in column order."""
    out = np.zeros((values.shape[0], len(refs)))
    for i, e in enumerate(refs):
        for k in range(values.shape[1]):
            out[:, i] += (np.conjugate(e[k]) * values[:, k]).real
    return out


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("n_nodes", [8193, 12291])
def test_projections_equal_the_product_with_the_transposed_rows(n_nodes, field):
    rng = np.random.default_rng(n_nodes)
    grid = Grid(0.0, 1.0, n_nodes - 1)
    for d in range(1, 9):
        values = rng.standard_normal((n_nodes, d))
        refs = rng.standard_normal((d, d))
        if field == COMPLEX:
            values = values + 1j * rng.standard_normal((n_nodes, d))
            refs = refs + 1j * rng.standard_normal((d, d))
        f = gridfn.GridFunction(grid, field, values)
        for n in range(1, d + 1):
            want = _column_projections(values, refs[:n])
            assert f.projections(refs[:n]).tobytes() == want.tobytes(), (d, n)
        want = _column_projections(values, refs[:1])[:, 0]
        assert f.projections(refs[0]).tobytes() == want.tobytes()


def _overflowing_file() -> dict:
    """||f(t)|| and ||f(t) - e|| overflow at every node; no single square does."""
    N = 8
    return {"id": "overflow", "field": "real", "d": 2, "interval": [0.0, 0.5], "N": N,
            "function": {"variant": "samples", "values": [[1e154, 1e154]] * (N + 1)},
            "reference": {"e": [1.0, 0.0]},
            "bounds": [{"bound_id": "COR_2_2", "params": {"rho": 0.5}},
                       {"bound_id": "THM_2_1", "params": {"k": {"constant": 0.5}}}],
            "tolerances": {}}


def test_overflowed_table_is_not_kept():
    with pytest.raises(DegeneracyError) as fresh:
        run(scenario_from_dict(_overflowing_file()))
    scenario = scenario_from_dict(_overflowing_file())
    f, e = scenario.f, scenario.reference.e
    k = profile_of({"constant": 0.5}, scenario.grid)
    # outside run() the checks still report a failed hypothesis, as numpy warns
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert not B.check_ball(f, e, k).holds
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert not B.check_dominance(f, e, k).holds
    # the finite projections are kept, the overflowed norms and distances are not
    assert [key[0] for key in f._tables] == ["projections"]
    with pytest.raises(DegeneracyError) as after:
        run(scenario)
    assert str(after.value) == str(fresh.value)
    assert "overflow" in str(fresh.value)


def test_part_integrals_once_per_function(monkeypatch):
    calls = []
    original = B._integrate

    def counting(grid, values, jumps, rule):
        calls.append(values.shape)
        return original(grid, values, jumps, rule)
    monkeypatch.setattr(B, "_integrate", counting)
    run(scenario_from_dict(dict(LARGE_FILES["curve-sinusoid"], N=64)))
    # int Re f and int Im f in one pass for PROP_4_1..4_3, and PROP_4_3's band gap integral
    assert calls == [(65, 2), (65, 1)]


# --------------------------------------------------------------------------
# sinusoid profiles

def test_sin_table_once_per_grid_and_omega():
    grid = Grid(0.0, 1.0, 4096)
    _sin_table.cache_clear()
    specs = [{"sinusoid": [1.0 + i, 0.5, 3.0]} for i in range(10)]
    profiles = [profile_of(spec, grid) for spec in specs]
    info = _sin_table.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 9, GRID_CACHE)
    for (c0, c1, omega), p in zip((s["sinusoid"] for s in specs), profiles):
        assert p.values.tobytes() == (c0 + c1 * np.sin(omega * grid.nodes())).tobytes()
    table = _sin_table(grid.key, (3.0).hex())
    assert not table.flags.writeable
    assert _sin_table(grid.key, (-0.0).hex()) is not _sin_table(grid.key, (0.0).hex())


# --------------------------------------------------------------------------
# sweeps evaluate the swept bound only

def _count_evaluate(monkeypatch) -> list:
    """The bound id of each evaluation, as run() judges its bounds: one trial at a time."""
    calls = []
    original = B.evaluate_trials

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs["bound_id"])
        return original(*args, **kwargs)
    monkeypatch.setattr(B, "evaluate_trials", counting)
    return calls


def _base_file(bounds) -> dict:
    return {"id": "cone-base", "field": "real", "d": 2, "interval": [0.0, 1.0], "N": 64,
            "function": {"variant": "cone", "e": [1.0, 0.0], "u": [0.0, 1.0],
                         "alpha": 1.0, "beta": 0.3},
            "reference": {"e": [1.0, 0.0]}, "bounds": bounds, "tolerances": {}}


def _rerun_rows(bound_id: str, parameter: str, values, base) -> list[tuple]:
    """Each step as a run of the whole base scenario with the swept entry replaced."""
    rows = []
    for value in values:
        ext = extremal_scenario(bound_id, {parameter: value}, n_panels=base.grid.n_panels)
        entries = tuple(ext.bounds[0] if e.bound_id == bound_id else e for e in base.bounds)
        whole = dataclasses.replace(base, bounds=entries)
        result = next(r for r in run(whole).results if r.bound_id == bound_id)
        rows.append((result.lhs, result.rhs, result.margin, result.verdict))
    return rows


def test_sweep_evaluates_only_the_swept_bound(monkeypatch):
    base = scenario_from_dict(_base_file(UNIT_BOUNDS))
    calls = _count_evaluate(monkeypatch)
    rows, warnings = sweep("COR_2_2", "rho", 0.3, 0.6, 4, base=base)
    assert not warnings and len(rows) == 4
    # one extremal and one base evaluation per step; every base bound per step made 36
    assert calls == ["COR_2_2"] * 8
    expected = _rerun_rows("COR_2_2", "rho", [r.value for r in rows], base)
    assert [(r.lhs, r.rhs, r.margin, r.verdict) for r in rows] == expected
    assert sweep_to_csv(rows).count("\n") == 5


def test_unrelated_base_bound_cannot_abort_a_sweep():
    # the base's COR_2_3 overflows in m * M, so a run of the whole base raises
    bounds = [{"bound_id": "COR_2_2", "params": {"rho": 0.6}},
              {"bound_id": "COR_2_3", "params": {"m": 1e160, "M": 4e160}}]
    base = scenario_from_dict(_base_file(bounds))
    rows, warnings = sweep("COR_2_2", "rho", 0.3, 0.6, 2, base=base)
    assert not warnings and [r.verdict for r in rows] == ["holds", "holds"]

