"""A fuzz() call integrates and judges its trials in chunks, one pass of each per chunk,
and draws every trial from one reused generator; reports, summaries and errors are those
of ``run()`` on each trial alone.  Also the pieces that pass relies on: numpy's vector
norm without its wrapper, and the ball builder's and complex cone's node work."""

from __future__ import annotations

import importlib
import json
import math
import threading

import numpy as np
import numpy._core._internal as np_internal
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

from .conftest import table_key
from .test_copy_free import _frame, _peak_bytes
from .test_hypothesis_routes import _public_check, _tree
from .test_residual_kernels import _reports

F = importlib.import_module("revtri.fuzz")   # the package's name ``fuzz`` is the function

N_PANELS = 32
SEED = 2718


def _config(bound_id: str, field: str) -> dict:
    return dict(d=4, field=field, n_family=3, n_panels=N_PANELS)


def _chunk_of(bound_id: str, field: str, trials: int, monkeypatch) -> None:
    """Set CHUNK_ENTRIES so that a chunk of ``bound_id``'s trials holds ``trials`` trials."""
    size = generate_scenario(bound_id, SEED, 0, **_config(bound_id, field)).f.values.size
    monkeypatch.setattr(F, "CHUNK_ENTRIES", trials * size)


def _generated(bound_id: str, field: str, trials: int = 5) -> tuple:
    """The scenarios of ``trials`` trials generated as one chunk, as a fuzz call makes them,
    and the stacks the chunk hands its judge."""
    cfg = _config(bound_id, field)
    setup = F._setup(bound_id, cfg["d"], field, cfg["n_family"], cfg["n_panels"])
    scenarios, stacks, failure = F._generate(SEED, range(trials), *setup)
    assert failure is None and stacks is not None
    return scenarios, stacks


def _summary_text(summary) -> str:
    return json.dumps(summary.to_dict(), sort_keys=True)


def _alone(bound_id: str, trials: int, cfg: dict):
    """The summary of ``trials`` trials, each judged alone by ``run()``."""
    summary = F.FuzzSummary(bound_id, trials, SEED, reports=[])
    for trial in range(trials):
        scenario = generate_scenario(bound_id, SEED, trial, **cfg)
        F._tally(summary, trial, scenario, run(scenario))
    return summary


@pytest.mark.parametrize("bound_id", B.ALL_BOUND_IDS)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_chunked_fuzz_gives_the_bytes_of_one_trial_at_a_time(bound_id, field, monkeypatch):
    # every trial is dumped, so the dumps are compared too
    monkeypatch.setattr(F, "_COUNTEREXAMPLE_SLACK", -math.inf)
    monkeypatch.setattr(F, "MAX_COUNTEREXAMPLE_DUMPS", 64)
    cfg = _config(bound_id, field)
    for chunk in (1, 2, 5, 31):   # and a second chunk of one trial
        _chunk_of(bound_id, field, chunk, monkeypatch)
        chunked = fuzz_fn(bound_id, chunk + 1, SEED, keep_reports=True, **cfg)
        alone = _alone(bound_id, chunk + 1, cfg)
        assert len(chunked.counterexamples) == chunk + 1
        for trial, (report, want) in enumerate(zip(chunked.reports, alone.reports)):
            assert report_to_json(report) == report_to_json(want), (bound_id, chunk, trial)
            assert report_to_csv(report) == report_to_csv(want)
        assert _summary_text(chunked) == _summary_text(alone), (bound_id, chunk)
        assert chunked.to_dict() == alone.to_dict()


def _kernel_free(tree):
    """A report's :func:`_tree` as a report without kernels gives it."""
    *numbers, _, subs = tree
    return (*numbers, True, None if subs is None else [_kernel_free(s) for s in subs])


@pytest.mark.parametrize("bound_id", B.ALL_BOUND_IDS)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_a_chunk_judges_each_hypothesis_as_its_public_checker(bound_id, field):
    """Each trial's hypothesis report from one stacked pass over a chunk of 5 trials, read
    from the chunk's stacks, is the public ``check_*`` function's, or for a family the report
    of ``evaluate`` on the trial alone, but without kernels: only those two attach them."""
    scenarios, stacks = _generated(bound_id, field)
    tol = scenarios[0].tolerances
    results = B.evaluate_trials([(s.f, s.reference, s.bounds[0].params) for s in scenarios],
                                bound_id, tau_hyp=tol.tau_hyp, tau_on=tol.tau_on, stacks=stacks)
    for s, result in zip(scenarios, results):
        params = s.bounds[0].params
        if bound_id in B.FAMILY_BOUNDS:
            want = B.evaluate(s.f, s.reference, params, bound_id, tau_hyp=tol.tau_hyp,
                              tau_on=tol.tau_on).hypothesis
        else:
            want = _public_check(s.f, s.reference, bound_id, params, tol)
        assert _tree(result.hypothesis, slack=False) == _kernel_free(_tree(want)), s.id


@pytest.mark.parametrize("bound_id", [B.COR_2_2, B.THM_3_1, B.PROP_4_3])
def test_trials_without_stacks_are_judged_one_at_a_time(bound_id):
    scenarios, _ = _generated(bound_id, REAL, trials=3)
    trials = [(s.f, s.reference, s.bounds[0].params) for s in scenarios]
    results = B.evaluate_trials(trials, bound_id)
    assert len(results) == 3
    for trial, result in zip(trials, results):
        want, = B.evaluate_trials([trial], bound_id)
        assert (result.lhs, result.rhs, result.verdict) == (want.lhs, want.rhs, want.verdict)
        assert _tree(result.hypothesis, slack=False) == _tree(want.hypothesis, slack=False)


@pytest.mark.parametrize("bound_id", B.ALL_BOUND_IDS)
def test_a_chunk_of_the_benchmark_size_gives_the_same_reports(bound_id):
    # 5 trials at N = 512 are one chunk; their reports are those of run() alone
    field = COMPLEX if bound_id in (B.THM_2_1, B.COR_2_2, B.COR_3_3) else REAL
    cfg = dict(d=8 if bound_id in B.FAMILY_BOUNDS else 4, field=field, n_family=3)
    summary = fuzz_fn(bound_id, 5, 41, keep_reports=True, **cfg)
    for trial, report in enumerate(summary.reports):
        alone = run(generate_scenario(bound_id, 41, trial, **cfg))
        assert report_to_json(report) == report_to_json(alone)


@pytest.mark.parametrize("bound_id", B.ALL_BOUND_IDS)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_the_judge_computes_no_node_table(bound_id, field, monkeypatch):
    """A chunk generator keeps every node table (norms, distances, projections) its bound's
    hypothesis reads, computed for the chunk in one call, so the judge's rows look them up
    and compute none: before, COR_2_2, MULT_B and PROP_4_1 computed their distances and
    COR_2_3, MULT_C, PROP_4_2 and PROP_4_3 their projections one trial at a time."""
    computed, inside, looked_up = [], [], []
    cached = GridFunction.cached

    def watched(self, key, compute):
        def counted():
            if inside:
                computed.append(key)
            return compute()
        return cached(self, key, counted)
    monkeypatch.setattr(GridFunction, "cached", watched)
    for name in ("norms", "projections", "distances"):
        def lookup(rows, table=getattr(B._Rows, name)):
            inside.append(table)
            looked_up.append(table)
            try:
                return table(rows)
            finally:
                inside.pop()
        monkeypatch.setattr(B._Rows, name, lookup)
    summary = fuzz_fn(bound_id, 5, SEED, **_config(bound_id, field))
    assert summary.holds == 5
    assert computed == [], computed
    assert looked_up or bound_id in (B.COR_2_5, B.COR_3_5, B.KARAMATA)


def test_the_pass_keeps_what_defect_and_norms_compute():
    """The pass keeps on each f the defect a fresh function computes, from the chunk's norms,
    which are the fresh function's own; the chunk's tables stay in the chunk."""
    scenarios, stacks = _generated(B.COR_3_3, COMPLEX, trials=4)
    fs = [s.f for s in scenarios]
    assert not any(f._tables for f in fs)
    integrate_trials(fs, stacks["values"], stacks["norms"])
    for f, norms in zip(fs, stacks["norms"]):
        fresh = GridFunction(f.grid, f.field, f.values.copy())
        want, got = defect(fresh), f._tables[("defect", "simpson")]
        for name in ("value", "err_est", "norm_integral", "norm_integral_err",
                     "integral_norm", "integral_err"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
        assert got.integral.coords.tobytes() == want.integral.coords.tobytes()
        assert norms.tobytes() == fresh.norms().tobytes()
        assert defect(f) is got and list(f._tables) == [("defect", "simpson")]


def _overflowing(monkeypatch, bound_id: str, bad_trial: int, generation_error: int | None = None):
    """Patch ``bound_id``'s generator: the ``bad_trial``-th call returns f scaled by 1e200,
    whose squared norms overflow, and the ``generation_error``-th call raises."""
    return _spoiled(monkeypatch, bound_id, {bad_trial}, _SPOILS["integrals"][1],
                    generation_error)


def _spoiled(monkeypatch, bound_id: str, bad_calls, spoil, generation_error=None):
    """Patch ``bound_id``'s chunk generator: the trials counted in ``bad_calls``, in the
    order they are drawn, come out as ``spoil(f, params)`` gives their function and
    parameters, and the draws of the ``generation_error``-th trial raise."""
    key = table_key(bound_id)
    original, streams = F.GENERATORS[key], F._reused_trial_rng
    calls = []

    def stream(seed, trial):
        k = len(calls)
        calls.append(k)
        if k == generation_error:
            raise InputError("generator failed")
        return streams(seed, trial)
    monkeypatch.setattr(F, "_reused_trial_rng", stream)

    def generator(chunk):
        first = len(calls)
        fs, refs, params = original(chunk)
        fs, params = list(fs), {name: list(column) for name, column in params.items()}
        for i in range(len(fs)):
            if first + i in bad_calls:
                fs[i], spoilt = spoil(fs[i], {name: params[name][i] for name in params})
                for name, value in spoilt.items():
                    params[name][i] = value
        return fs, refs, params
    monkeypatch.setitem(F.GENERATORS, key, generator)
    return calls


#: Ways to spoil a trial, each with the bound it is tried on: squared norms that overflow
#: in the integrals, a band product m M that overflows in the hypothesis, a radius out of
#: its range.
_SPOILS = {
    "integrals": (B.COR_2_2, lambda f, p: (GridFunction(f.grid, f.field, f.values * 1e200), p)),
    "hypothesis": (B.COR_2_3, lambda f, p: (f, dict(p, m=1e200, M=1e200))),
    "parameter": (B.COR_2_2, lambda f, p: (f, dict(p, rho=1.5))),
}


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("kind", sorted(_SPOILS))
@pytest.mark.parametrize("bad", [0, 2, 4])
def test_a_bad_trial_inside_a_chunk_raises_its_own_error(bad, kind, field, monkeypatch):
    """Trials ``bad`` and 4 of a chunk of 5 are spoiled: the chunk raises the error of trial
    ``bad`` judged alone by run()."""
    bound_id, spoil = _SPOILS[kind]
    cfg = _config(bound_id, field)
    with monkeypatch.context() as m:
        _spoiled(m, bound_id, {0}, spoil)
        with pytest.raises(Exception) as alone:
            run(generate_scenario(bound_id, SEED, bad, **cfg))
    assert f"-t{bad}:" in str(alone.value)
    _chunk_of(bound_id, field, 5, monkeypatch)
    _spoiled(monkeypatch, bound_id, {bad, 4}, spoil)
    with pytest.raises(type(alone.value)) as err:
        fuzz_fn(bound_id, 5, SEED, **cfg)
    assert str(err.value) == str(alone.value)


def test_trials_before_a_failed_generation_are_judged_first(monkeypatch):
    bound_id = B.COR_2_2
    _chunk_of(bound_id, REAL, 8, monkeypatch)
    cfg = _config(bound_id, REAL)
    judged, evaluate_trials = [], B.evaluate_trials
    monkeypatch.setattr(B, "evaluate_trials", lambda trials, *args, **kwargs: judged.append(
        len(trials)) or evaluate_trials(trials, *args, **kwargs))
    with monkeypatch.context() as m:
        _overflowing(m, bound_id, bad_trial=-1, generation_error=3)
        with pytest.raises(InputError, match="generator failed"):
            fuzz_fn(bound_id, 6, SEED, **cfg)
    assert judged == [3]   # trials 0, 1 and 2 in one pass
    # an earlier trial's error wins over the later failed generation
    with monkeypatch.context() as m:
        _overflowing(m, bound_id, bad_trial=1, generation_error=3)
        with pytest.raises(DegeneracyError, match=r"-t1:integrals\] floating-point overflow"):
            fuzz_fn(bound_id, 6, SEED, **cfg)


def test_the_reused_generator_gives_the_streams_of_trial_rng():
    """The thread's generator, kept across fuzz() calls, gives each (seed, trial) the stream
    of trial_rng: re-keyed by the seed too, so that a second seed is not read from the first
    seed's key."""
    stream, first = F._reused_trial_rng, F._reused_trial_rng(7, 0)
    fuzz_fn(B.COR_2_2, 3, 7, **_config(B.COR_2_2, REAL))   # an earlier call drew from it
    assert stream(7, 0) is first
    cases = [(2 ** 64 - 5, trial) for trial in (0, 1, 2 ** 64 - 1, 1, 0)]
    for seed, trial in cases + [(1, 0), (2, 0), (7, 2), (1, 0), (0, 2 ** 64 - 1)]:
        rng, fresh = stream(seed, trial), trial_rng(seed, trial)
        for draw in (lambda g: g.integers(1, 9), lambda g: g.standard_normal(5),
                     lambda g: g.integers(0, 2 ** 32, dtype=np.uint32),   # half a word left
                     lambda g: g.uniform(0.1, 0.9, 3)):
            assert np.asarray(draw(rng)).tobytes() == np.asarray(draw(fresh)).tobytes(), \
                (seed, trial)
    with pytest.raises(InputError, match=r"seed and trial must lie in \[0, 2\*\*64\)"):
        stream(2 ** 64, 0)
    other = []
    thread = threading.Thread(target=lambda: other.append(stream(7, 0)))
    thread.start()
    thread.join()
    assert other[0] is not first   # one generator per thread


def _watched(monkeypatch, forbidden: dict) -> list:
    """Make each call in ``forbidden`` (name -> (owner, attribute)) raise while ``fuzz._judge``
    runs, and record the ``stacks`` each ``evaluate_trials`` call is given."""
    judging, given = [], []
    for name, (owner, attr) in forbidden.items():
        def call(*args, _name=name, _original=getattr(owner, attr), **kwargs):
            if judging:
                raise AssertionError(f"{_name} called while a chunk is judged")
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, call)
    judge, evaluate_trials = F._judge, B.evaluate_trials

    def judged(*args):
        judging.append(True)
        try:
            return judge(*args)
        finally:
            judging.pop()

    def recorded(*args, **kwargs):
        given.append(kwargs.get("stacks"))
        return evaluate_trials(*args, **kwargs)
    monkeypatch.setattr(F, "_judge", judged)
    monkeypatch.setattr(B, "evaluate_trials", recorded)
    return given


def _raising(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("bound_id", B.ALL_BOUND_IDS)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_the_judge_reads_the_chunk_stacks_and_attaches_no_kernel(bound_id, field, monkeypatch):
    """A 5-trial fuzz call judges its chunk from the stacks the chunk built: while it is
    judged, nothing is stacked and no array address is read, and neither the fuzz call
    nor run() attaches a kernel, which only ``evaluate`` and ``check_*`` do."""
    given = _watched(monkeypatch, {"np.stack": (np, "stack"),
                                   "an address lookup": (np_internal._ctypes, "__init__")})
    monkeypatch.setattr(F, "run", _raising)   # no trial is judged again alone
    monkeypatch.setattr(B, "_slack", _raising)   # no kernel is evaluated, and none is kept
    summary = fuzz_fn(bound_id, 5, SEED, keep_reports=True, **_config(bound_id, field))
    assert summary.holds == 5 and len(given) == 1 and given[0] is not None
    assert {"values", "norms"} <= set(given[0])
    for report in summary.reports:
        assert all(r.kernel is None for r in _reports(report.results[0].hypothesis))
    report = run(generate_scenario(bound_id, SEED, 0, **_config(bound_id, field)))
    assert all(r.kernel is None for r in _reports(report.results[0].hypothesis))


@pytest.mark.parametrize("bound_id", B.ALL_BOUND_IDS)
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_a_bug_in_the_stacked_pass_is_not_swallowed(bound_id, field, monkeypatch):
    """The judge falls back to run() only on the errors a trial can raise: an error of the
    stacked pass itself propagates instead of being judged again on the slow path."""
    cfg = _config(bound_id, field)
    monkeypatch.setattr(F, "run", _raising)
    assert fuzz_fn(bound_id, 5, SEED, **cfg).holds == 5   # every trial judged in one pass
    monkeypatch.setattr(B, "_take", lambda *args: [][0])
    with pytest.raises(IndexError):
        fuzz_fn(bound_id, 5, SEED, **cfg)


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
