"""Hypotheses judged without keeping their residuals: a report of ``bounds.evaluate`` or
a checker holds the kernel that computes them, ``slack_profile`` calls it on every
access, and a family folds one member at a time into its running maximum; a report of
``run()`` keeps no kernel, only numbers.  Every profile is checked against the
whole-array residual the report used to keep (written out here as the reference), and
the memory of a large family check, of held run reports and of a sweep against what the
run keeps."""

from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from revtri import bounds as B
from revtri.errors import DegeneracyError, InputError
from revtri.fuzz import fuzz, generate_scenario
from revtri.gridfn import Grid, GridFunction, ScalarProfile
from revtri.hilbert import COMPLEX, REAL, HVector, check_orthonormal
from revtri.scenario import _NODE_BLOCK, run, scenario_from_dict
from revtri.sweep import sweep, sweep_to_csv

from .conftest import patch_shape
from .test_node_tables import LARGE_FILES
from .test_one_function import _step_by_step

GRID = Grid(0.0, 1.0, 2 * _NODE_BLOCK + 4)


def _frame(rng, field: str, d: int, n: int) -> list[np.ndarray]:
    a = rng.standard_normal((d, n))
    if field == COMPLEX:
        a = a + 1j * rng.standard_normal((d, n))
    q, _ = np.linalg.qr(a)
    return [q[:, i] for i in range(n)]


def _function(rng, field: str, d: int) -> GridFunction:
    x = rng.standard_normal((GRID.n_nodes, d))
    if field == COMPLEX:
        x = x + 1j * rng.standard_normal((GRID.n_nodes, d))
    return GridFunction(GRID, field, x)


def _profile(rng, lo: float, hi: float) -> ScalarProfile:
    return ScalarProfile(GRID, rng.uniform(lo, hi, GRID.n_nodes))


def _values(x) -> np.ndarray:
    return x.values if isinstance(x, ScalarProfile) else np.asarray(x, dtype=np.float64)


def _reports(report):
    yield report
    for sub in report.sub_reports or ():
        yield from _reports(sub)


def evaluate_bounds(scenario) -> list[B.BoundResult]:
    """The results of ``run(scenario)`` with their kernels: each bound evaluated on the
    scenario's f as ``run()`` evaluates it, under its floating-point guard."""
    f, tol = scenario.f, scenario.tolerances
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        return [B.evaluate(f, scenario.reference, entry.params, entry.bound_id,
                           tau_hyp=tol.tau_hyp, tau_on=tol.tau_on)
                for entry in scenario.bounds]


def _assert_profiles(report, old: list[np.ndarray]) -> None:
    """Each report of the tree reads the same bytes twice, and they are the old residual's;
    no field of a report holds an array."""
    reports = list(_reports(report))
    assert len(reports) == len(old)
    for r, want in zip(reports, old):
        first, second = r.slack_profile, r.slack_profile
        assert first is not second
        assert first.tobytes() == second.tobytes() == np.asarray(want, np.float64).tobytes()
        assert int(np.argmax(want)) == r.worst_node
        assert not any(isinstance(getattr(r, fld.name), np.ndarray)
                       for fld in dataclasses.fields(r))


def _old_family(residuals: list[np.ndarray]) -> list[np.ndarray]:
    """The combined residual as the eager check folded it, then the members'."""
    combined = residuals[0].copy()
    for r in residuals[1:]:
        np.maximum(combined, r, out=combined)
    return [combined, *residuals]


# --------------------------------------------------------------------------
# the slack_profile contract

@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("profile", [True, False])
def test_unit_checks_recompute_the_old_residuals(field, profile):
    rng = np.random.default_rng(7)
    f = _function(rng, field, 3)
    e = HVector(field, _frame(rng, field, 3, 1)[0])
    norms, proj, dist = f.norms(), f.projections(e.coords), f.distances(e.coords)
    k = _profile(rng, 0.5, 2.0) if profile else 1.25
    _assert_profiles(B.check_dominance(f, e, k), [norms - proj - _values(k)])
    _assert_profiles(B.check_scaled_dominance(f, e, 1.5), [norms - 1.5 * proj])
    r = _profile(rng, 1.0, 2.0) if profile else 1.5
    _assert_profiles(B.check_ball(f, e, r), [dist - _values(r)])
    m, M = (_profile(rng, 0.2, 0.4), _profile(rng, 1.5, 2.5)) if profile else (0.3, 2.0)
    m_vals, M_vals = _values(m), _values(M)
    _assert_profiles(B.check_band(f, e, m, M, "inner"),
                     [np.square(norms) + m_vals * M_vals - (M_vals + m_vals) * proj])
    _assert_profiles(B.check_band(f, e, m, M, "norm"),
                     [B._band_norm_residuals(f, e.coords, m_vals, M_vals)])


@pytest.mark.parametrize("profile", [True, False])
def test_complex_plane_checks_recompute_the_old_residuals(profile):
    rng = np.random.default_rng(8)
    f = _function(rng, COMPLEX, 1)
    z = f.values[:, 0]
    _assert_profiles(B.check_arg(f, 1.0), [np.abs(np.angle(z)) - 1.0])
    alpha, beta = math.cos(0.7), math.sin(0.7)
    m, M = (_profile(rng, 0.1, 0.3), _profile(rng, 1.5, 2.5)) if profile else (0.2, 2.0)
    m_vals, M_vals = _values(m), _values(M)
    x, y = z.real, z.imag
    box = np.maximum(np.maximum(np.maximum(m_vals * alpha - x, x - M_vals * alpha),
                                m_vals * beta - y), y - M_vals * beta)
    p = f.projections(np.array([complex(alpha, beta)]))
    band = np.square(f.norms()) + m_vals * M_vals - (M_vals + m_vals) * p
    hyp = B.check_box_complex(f, alpha, beta, m, M)
    _assert_profiles(hyp, [box, band])
    assert hyp.slack_profile is not hyp.sub_reports[0].slack_profile


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_family_bounds_recompute_the_old_residuals(field):
    rng = np.random.default_rng(9)
    f = _function(rng, field, 4)
    members = [HVector(field, v) for v in _frame(rng, field, 4, 3)]
    family = check_orthonormal(tuple(members))
    ref = B.Reference(B.REF_FAMILY, family=family)
    norms, proj = f.norms(), f.projections(family.matrix())
    ks = tuple(_profile(rng, 1.0, 2.0) for _ in members)
    rhos, ms, Ms = (0.9, 0.5, 0.7), (0.2, 0.3, 0.1), (2.0, 3.0, 2.5)
    rs = tuple(_profile(rng, 1.0, 2.0) for _ in members)
    lows = tuple(_profile(rng, 0.1, 0.3) for _ in members)
    highs = tuple(_profile(rng, 1.5, 2.5) for _ in members)
    cases = [
        (B.THM_3_1, B.BoundParams(dominance_profiles=ks),
         [norms - proj[:, i] - k.values for i, k in enumerate(ks)]),
        (B.COR_3_2, B.BoundParams(rhos=rhos),
         [f.distances(e.coords) - rho for e, rho in zip(members, rhos)]),
        (B.COR_3_3, B.BoundParams(ms=ms, Ms=Ms),
         [np.square(norms) + m * M - (M + m) * proj[:, i]
          for i, (m, M) in enumerate(zip(ms, Ms))]),
        (B.COR_3_4, B.BoundParams(r_profiles=rs),
         [f.distances(e.coords) - r.values for e, r in zip(members, rs)]),
        (B.COR_3_5, B.BoundParams(m_profiles=lows, M_profiles=highs),
         [B._band_norm_residuals(f, e.coords, m.values, M.values)
          for e, m, M in zip(members, lows, highs)]),
    ]
    for bound_id, params, residuals in cases:
        hyp = B.evaluate(f, ref, params, bound_id).hypothesis
        _assert_profiles(hyp, _old_family(residuals))


def _numbers(report) -> tuple:
    return (report.condition_id, report.holds, report.worst_violation, report.worst_node,
            report.tol, report.failing_indices)


def test_reports_of_a_run_keep_numbers_only():
    """A run's hypothesis reports, sub-reports included, carry the numbers of the
    evaluated ones and no kernel; their slack profiles are read through ``evaluate`` on
    the scenario's f."""
    for name in ("family-real-5", "cone-complex-2", "curve-sinusoid"):
        scenario = scenario_from_dict(dict(LARGE_FILES[name], N=300))
        report = run(scenario)
        evaluated = evaluate_bounds(scenario)
        assert len(evaluated) == len(report.results)
        for result, full in zip(report.results, evaluated):
            kept, computed = list(_reports(result.hypothesis)), list(_reports(full.hypothesis))
            assert list(map(_numbers, kept)) == list(map(_numbers, computed))
            for r, e in zip(kept, computed):
                assert r.kernel is None and e.kernel is not None
                assert not any(isinstance(getattr(r, fld.name), np.ndarray)
                               for fld in dataclasses.fields(r))
                with pytest.raises(InputError, match=rf"^the {re.escape(r.condition_id)} "
                                   r"report keeps no residuals: evaluate the bound on the "
                                   r"scenario's function for its slack profile$"):
                    r.slack_profile
                assert e.slack_profile.tobytes() == e.slack_profile.tobytes()
            assert dataclasses.replace(full, hypothesis=result.hypothesis) == result


def test_worst_node_is_the_first_nan():
    rng = np.random.default_rng(10)
    f = _function(rng, REAL, 2)
    e = HVector(REAL, [1.0, 0.0])
    k = rng.uniform(0.0, 1.0, GRID.n_nodes)
    k[[9, 5]] = np.nan, np.nan
    hyp = B.check_dominance(f, e, ScalarProfile(GRID, k))
    assert hyp.worst_node == 5 and math.isnan(hyp.worst_violation) and not hyp.holds
    assert np.isnan(hyp.slack_profile[[5, 9]]).all()

    a, b = np.full(GRID.n_nodes, -1.0), np.full(GRID.n_nodes, -2.0)
    a[9], b[7], b[3] = np.nan, np.nan, 5.0
    fam = B._family_check([a.copy, b.copy], "family", B.DEFAULT_HYP_TOL)
    assert [r.worst_node for r in _reports(fam)] == [7, 9, 7]
    assert math.isnan(fam.worst_violation) and not fam.holds
    assert fam.failing_indices == (0, 1)
    b[7] = -2.0    # a NaN in one member outranks a larger violation in another
    fam = B._family_check([a.copy, b.copy], "family", B.DEFAULT_HYP_TOL)
    assert [r.worst_node for r in _reports(fam)] == [9, 9, 3]
    assert math.isnan(fam.worst_violation) and fam.sub_reports[1].worst_violation == 5.0


# --------------------------------------------------------------------------
# memory: residuals are not kept

def _peak_and_kept(fn) -> tuple[int, int]:
    """The traced peak of ``fn()``, whose result is dropped at once, and what it left
    allocated."""
    tracemalloc.start()
    try:
        fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept


@pytest.mark.parametrize("name", ["family-real-5", "family-complex-4"])
def test_family_check_keeps_no_residuals(name):
    """What a run leaves allocated (f's node tables, the grid's quadrature weights) plus
    four node arrays and 1 MiB for a real f: a member's kernel holds up to three while it
    runs, beside the running maximum.  A complex f may use seven node arrays and 128
    KiB: the kernel squares one shifted complex column at a time, which with its
    conjugate takes four node arrays beside the band center and the running sum.  Kept
    residuals, 3 members and their maximum for each of the 5 family bounds, would be 20
    node arrays."""
    scenario = scenario_from_dict(dict(LARGE_FILES[name], N=65536))
    scenario.f
    node = scenario.grid.n_nodes * 8
    peak, kept = _peak_and_kept(lambda: run(scenario))
    tables = sum(v.nbytes for v in scenario.f._tables.values() if isinstance(v, np.ndarray))
    assert tables <= kept
    budget = 7 * node + 2 ** 17 if scenario.field == COMPLEX else 4 * node + 2 ** 20
    assert peak <= kept + budget, (peak, kept)


def _held(make) -> tuple[int, int]:
    """How many reports ``make()`` returns, and the traced bytes they alone keep alive:
    what is freed when the list of them is dropped (caches filled on the way stay)."""
    tracemalloc.start()
    try:
        reports = make()
        count = len(reports)
        held = tracemalloc.get_traced_memory()[0]
        del reports
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return count, held


#: The closed-form files of the check_closed benchmark's kinds: cones with their jump,
#: ball perturbations, symmetric families and both complex curves.
CLOSED_FILES = ("cone-real-3", "cone-complex-2", "ball-real-4", "ball-complex-3",
                "family-real-5", "family-complex-4", "curve-sinusoid", "curve-linear")


def test_held_run_reports_keep_no_node_arrays():
    """Each held report of a run at N = 65536 keeps at most 256 KiB, a quarter of one
    complex node array: no f, no node table, no profile (8 reports kept 55.7 MB when
    their hypothesis reports held kernels)."""
    count, held = _held(lambda: [run(scenario_from_dict(dict(LARGE_FILES[name], N=65536)))
                                 for name in CLOSED_FILES])
    assert count == len(CLOSED_FILES)
    assert held <= count * 2 ** 18, held


def test_fuzz_reports_keep_no_node_arrays():
    """The reports a fuzz campaign keeps hold at most 1 MiB together, beside the grid
    caches the trials fill (6 trials at N = 65536, d = 8 kept 65.1 MB through kernels)."""
    def reports():
        summary = fuzz(B.COR_3_5, 6, 1, d=8, n_panels=65536, keep_reports=True)
        assert summary.counterexamples == []
        return summary.reports
    count, held = _held(reports)
    assert count == 6
    assert held <= 2 ** 20, held


def _cor_3_5_file(M_1: float) -> dict:
    data = dict(LARGE_FILES["family-real-5"], N=64)
    data["bounds"] = [{"bound_id": "COR_3_5", "params": {"m_i": [0.1, 0.0, 0.1],
                                                         "M_i": [2.0, M_1, 2.0]}}]
    return data


def test_family_member_integrals_are_taken_as_each_is_made(monkeypatch):
    events = []
    make, integrate = B.band_gap_integrand, B.sample_integral
    patch_shape(monkeypatch, "_BAND_NORM",
                integrand=lambda *args: events.append("make") or make(*args))
    monkeypatch.setattr(B, "sample_integral",
                        lambda *args: events.append("integrate") or integrate(*args))
    run(scenario_from_dict(_cor_3_5_file(2.0)))
    assert events == ["make", "integrate"] * 3


def test_an_overflowing_family_member_raises_the_same_error():
    """Member 1's band gap (M - m)^2 / (M + m) overflows in its square; its ball check
    does not, since the center's squared norm (M/2)^2 stays finite."""
    with pytest.raises(DegeneracyError) as exc:
        run(scenario_from_dict(_cor_3_5_file(1.4e154)))
    assert str(exc.value) == ("[family-real-5:COR_3_5] floating-point "
                              "overflow encountered in square")


def test_sweep_keeps_only_the_numbers_of_each_step():
    base = generate_scenario(B.COR_2_5, 5, 0, n_panels=65536)
    base.f
    rows, _ = sweep(B.COR_2_5, "M", 2.0, 9.0, 4, base=base)
    assert sweep_to_csv(rows) == _step_by_step(B.COR_2_5, "M", [r.value for r in rows], base)
    node = base.grid.n_nodes * 8
    # with a base, a step keeps only the swept entry the base run needs: its m and M
    small, _ = _peak_and_kept(lambda: sweep(B.COR_2_5, "M", 2.0, 9.0, 4, base=base))
    large, _ = _peak_and_kept(lambda: sweep(B.COR_2_5, "M", 2.0, 9.0, 12, base=base))
    assert (large - small) / 8 <= 2 * node + 2 ** 14, (small, large)
    # without one, a step keeps no array
    small, _ = _peak_and_kept(lambda: sweep(B.COR_2_5, "M", 2.0, 9.0, 4))
    large, _ = _peak_and_kept(lambda: sweep(B.COR_2_5, "M", 2.0, 9.0, 12))
    assert large - small <= 2 ** 12, (small, large)
