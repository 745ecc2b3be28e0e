"""A fuzz() call integrates its trials in chunks, one pass per chunk, and draws every
trial from one reused generator; reports, summaries and errors are those of the
trials run one at a time.  Also the pieces that pass relies on: numpy's vector norm
without its wrapper, and the ball builder's and complex cone's node work."""

from __future__ import annotations

import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtri import fuzz as fuzz_fn
from revtri import generate_scenario, run, trial_rng
from revtri import bounds as B
from revtri.bounds import REF_DIRECTION, BoundParams, Reference
from revtri.errors import DegeneracyError, InputError
from revtri.gridfn import FunctionSpec, Grid, GridFunction, materialize
from revtri.hilbert import COMPLEX, REAL, HVector, vector_norm
from revtri.quadrature import defect, integrate_trials
from revtri.scenario import BoundEntry, Scenario, Tolerances, report_to_csv, report_to_json

from .test_copy_free import _frame, _peak_bytes

F = importlib.import_module("revtri.fuzz")   # the package's name ``fuzz`` is the function

N_PANELS = 32
SEED = 2718


def _config(bound_id: str, field: str) -> dict:
    return dict(d=4, field=field, n_family=3, n_panels=N_PANELS)


def _chunk_of(bound_id: str, field: str, trials: int, monkeypatch) -> None:
    """Set CHUNK_ENTRIES so that a chunk of ``bound_id``'s trials holds ``trials`` trials."""
    size = generate_scenario(bound_id, SEED, 0, **_config(bound_id, field)).f.values.size
    monkeypatch.setattr(F, "CHUNK_ENTRIES", trials * size)


def _one_at_a_time(monkeypatch):
    """fuzz() with the chunk pass switched off: each trial's run() integrates its f."""
    monkeypatch.setattr(F, "integrate_trials", lambda fs: None)


def _summary_text(summary) -> str:
    return json.dumps(summary.to_dict(), sort_keys=True)


@pytest.mark.parametrize("bound_id", B.ALL_BOUND_IDS)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_chunked_fuzz_gives_the_bytes_of_one_trial_at_a_time(bound_id, field, monkeypatch):
    chunk = 3
    _chunk_of(bound_id, field, chunk, monkeypatch)
    # every trial is dumped, so the dumps are compared too
    monkeypatch.setattr(F, "_COUNTEREXAMPLE_SLACK", -math.inf)
    monkeypatch.setattr(F, "MAX_COUNTEREXAMPLE_DUMPS", 2 * chunk)
    cfg = _config(bound_id, field)
    for trials in (1, chunk - 1, chunk, chunk + 1):
        chunked = fuzz_fn(bound_id, trials, SEED, keep_reports=True, **cfg)
        assert len(chunked.counterexamples) == trials
        for trial, report in enumerate(chunked.reports):
            alone = run(generate_scenario(bound_id, SEED, trial, **cfg))
            assert report_to_json(report) == report_to_json(alone), (bound_id, trials, trial)
            assert report_to_csv(report) == report_to_csv(alone)
        with monkeypatch.context() as m:
            _one_at_a_time(m)
            reference = fuzz_fn(bound_id, trials, SEED, keep_reports=True, **cfg)
        assert _summary_text(chunked) == _summary_text(reference), (bound_id, trials)
        assert chunked.to_dict() == reference.to_dict()


@pytest.mark.parametrize("bound_id", B.ALL_BOUND_IDS)
def test_a_chunk_of_the_benchmark_size_gives_the_same_reports(bound_id):
    # 5 trials at N = 512 are one chunk; their reports are those of run() alone
    field = COMPLEX if bound_id in (B.THM_2_1, B.COR_2_2, B.COR_3_3) else REAL
    cfg = dict(d=8 if bound_id in B.FAMILY_BOUNDS else 4, field=field, n_family=3)
    summary = fuzz_fn(bound_id, 5, 41, keep_reports=True, **cfg)
    for trial, report in enumerate(summary.reports):
        alone = run(generate_scenario(bound_id, 41, trial, **cfg))
        assert report_to_json(report) == report_to_json(alone)


def test_the_pass_keeps_what_defect_and_norms_compute():
    fs = [generate_scenario(B.COR_3_3, 5, t, d=4, field=COMPLEX).f for t in range(4)]
    fresh = [GridFunction(f.grid, f.field, f.values) for f in fs]
    integrate_trials(fresh)
    for f, g in zip(fs, fresh):
        want, got = defect(f), g._tables[("defect", "simpson")]
        for name in ("value", "err_est", "norm_integral", "norm_integral_err",
                     "integral_norm", "integral_err"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert got.integral.coords.tobytes() == want.integral.coords.tobytes()
        assert g._tables[("norms",)].tobytes() == f.norms().tobytes()
        assert defect(g) is got


def _overflowing(monkeypatch, bound_id: str, bad_trial: int, generation_error: int | None = None):
    """Patch ``bound_id``'s generator: the ``bad_trial``-th call returns f scaled by 1e200,
    whose squared norms overflow, and the ``generation_error``-th call raises."""
    original = F.GENERATORS[bound_id]
    calls = []

    def generator(rng, grid, field, d, n_family):
        k = len(calls)
        calls.append(k)
        if k == generation_error:
            raise InputError("generator failed")
        f, reference, params = original(rng, grid, field, d, n_family)
        if k == bad_trial:
            f = GridFunction(grid, field, f.values * 1e200)
        return f, reference, params
    monkeypatch.setitem(F.GENERATORS, bound_id, generator)
    return calls


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_an_overflowing_trial_inside_a_chunk_raises_as_alone(field, monkeypatch):
    bound_id = B.COR_2_2
    _chunk_of(bound_id, field, 4, monkeypatch)
    cfg = _config(bound_id, field)
    messages = []
    for one_at_a_time in (False, True):
        with monkeypatch.context() as m:
            if one_at_a_time:
                _one_at_a_time(m)
            _overflowing(m, bound_id, bad_trial=2)
            with pytest.raises(DegeneracyError) as err:
                fuzz_fn(bound_id, 4, SEED, **cfg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"[fuzz-{bound_id}-s{SEED}-t2:integrals] floating-point overflow")


def test_trials_before_a_failed_generation_are_judged_first(monkeypatch):
    bound_id = B.COR_2_2
    _chunk_of(bound_id, REAL, 8, monkeypatch)
    cfg = _config(bound_id, REAL)
    judged = []
    monkeypatch.setattr(F, "run", lambda scenario: judged.append(scenario.id) or run(scenario))
    with monkeypatch.context() as m:
        _overflowing(m, bound_id, bad_trial=-1, generation_error=3)
        with pytest.raises(InputError, match="generator failed"):
            fuzz_fn(bound_id, 6, SEED, **cfg)
    assert judged == [f"fuzz-{bound_id}-s{SEED}-t{t}" for t in range(3)]
    # an earlier trial's error wins over the later failed generation
    with monkeypatch.context() as m:
        _overflowing(m, bound_id, bad_trial=1, generation_error=3)
        with pytest.raises(DegeneracyError, match=r"-t1:integrals\] floating-point overflow"):
            fuzz_fn(bound_id, 6, SEED, **cfg)


def test_the_reused_generator_gives_the_streams_of_trial_rng():
    seed = 2 ** 64 - 5
    stream = F._reused_trial_rng()
    for trial in (0, 1, 2 ** 64 - 1, 1, 0):
        rng, fresh = stream(seed, trial), trial_rng(seed, trial)
        for draw in (lambda g: g.integers(1, 9), lambda g: g.standard_normal(5),
                     lambda g: g.integers(0, 2 ** 32, dtype=np.uint32),   # half a word left
                     lambda g: g.uniform(0.1, 0.9, 3)):
            assert np.asarray(draw(rng)).tobytes() == np.asarray(draw(fresh)).tobytes(), trial


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


_magnitudes = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),                             # subnormal squares
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e154, -1.4e154, 1e308]),
)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(_magnitudes, _magnitudes), min_size=1, max_size=24),
       complex_=st.booleans(), layout=st.sampled_from(["contiguous", "strided", "2d", "2d-T"]))
def test_vector_norm_is_numpys_norm_bit_for_bit(parts, complex_, layout):
    re, im = np.array(parts, dtype=np.float64).T
    x = re + 1j * im if complex_ else re
    if complex_:   # re + 1j*im loses signed zeros of im; set the parts directly
        x.real, x.imag = re, im
    if layout == "strided":
        x = np.repeat(x, 2)[::2]
    elif layout == "2d" and len(x) % 2 == 0:
        x = x.reshape(2, -1)
    elif layout == "2d-T" and len(x) % 2 == 0:
        x = x.reshape(2, -1).T
    with np.errstate(all="ignore"):
        assert _bits(vector_norm(x)) == _bits(float(np.linalg.norm(x)))


def test_vector_norm_of_zero_and_of_overflowing_entries():
    with np.errstate(all="ignore"):
        for x in (np.zeros(3), np.array([1e200, -1e200]), np.array([1e300 + 1e300j]),
                  np.array([np.inf, 1.0]), np.array([np.nan, 0.0])):
            assert _bits(vector_norm(x)) == _bits(float(np.linalg.norm(x)))


@pytest.mark.parametrize("field, scratch", [(REAL, 2), (COMPLEX, 3)])
def test_ball_perturbation_keeps_one_node_array_less(field, scratch):
    # sin(wt) v_j goes to the next column, the last one over cos: the scratch is wt (sin)
    # and cos, and for a complex field cos in a complex array for the last product
    grid = Grid(0.0, 1.0, 65536)
    grid.nodes()
    e, u, v = _frame(np.random.default_rng(3), field, 4, 3)
    peak, nbytes = _peak_bytes(lambda: materialize(
        FunctionSpec.ball_perturbation(e, 0.3, 7.0, u, v), grid, field, 4))
    node = grid.n_nodes * 8
    assert peak - nbytes <= (scratch + 0.3) * node, (peak - nbytes) / node


def _complex_cone(e: complex, alpha: float, beta: float, grid: Grid):
    return materialize(FunctionSpec.cone(HVector(COMPLEX, [e]), HVector(COMPLEX, [1j * e]),
                                         alpha, beta), grid, COMPLEX, 1)


def test_a_complex_cone_needs_only_re_u_e_zero():
    grid = Grid(0.0, 1.0, 64)
    f = _complex_cone(1.0, 0.64, 0.48, grid)   # u = i e: <u, e> = i, Re<u, e> = 0
    assert np.allclose(np.abs(f.values[:, 0] - 1.0), 0.6, atol=1e-15)
    with pytest.raises(InputError, match=r"\|Re<x,y>\| = 6\.000e-01"):
        materialize(FunctionSpec.cone(HVector(COMPLEX, [1.0, 0.0]),
                                      HVector(COMPLEX, [0.6, 0.8j]), 1.0, 0.5),
                    grid, COMPLEX, 2)
    with pytest.raises(InputError, match=r"\|<x,y>\| = 1\.000e\+00"):   # real: as before
        materialize(FunctionSpec.cone(HVector(REAL, [1.0]), HVector(REAL, [1.0]), 1.0, 0.5),
                    grid, REAL, 1)


def test_cor_2_2_cone_about_a_direction_is_an_equality_case_of_prop_4_1():
    # COR_2_2's recipe cone at rho = 0.6 (alpha = 1 - rho^2, beta = rho sqrt(1 - rho^2))
    # on e = 1 turned to the direction e = cos(psi) + i sin(psi), u = i e
    rho, psi = 0.6, 0.7
    e = complex(math.cos(psi), math.sin(psi))
    grid = Grid(0.0, 1.0, 512)
    scenario = Scenario(
        id="prop41-cone", field=COMPLEX, d=1, grid=grid,
        function=FunctionSpec.cone(HVector(COMPLEX, [e]), HVector(COMPLEX, [1j * e]),
                                   1.0 - rho * rho, rho * math.sqrt(1.0 - rho * rho)),
        reference=Reference(REF_DIRECTION, alpha=e.real, beta=e.imag),
        bounds=(BoundEntry(B.PROP_4_1, BoundParams(rho=rho)),),
        tolerances=Tolerances(),
    )
    result = run(scenario).results[0]
    assert result.verdict == B.HOLDS
    assert abs(result.margin) <= result.err_budget
    assert result.err_budget < 1e-13
