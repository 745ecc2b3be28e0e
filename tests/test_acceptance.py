"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The fuzzing campaign
(17 bounds x 1000 seeded trials at N = 512, d <= 8) is shared between the
soundness, chain, erratum and nonnegativity criteria.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from revtri import (
    COMPLEX,
    REAL,
    ALL_BOUND_IDS,
    BoundParams,
    Grid,
    GridFunction,
    HVector,
    ScalarProfile,
    basis_vector,
    bochner_integral,
    check_band,
    check_box_complex,
    check_orthonormal,
    defect,
    eval_family_bound,
    eval_unit_bound,
    fuzz,
)
from revtri.bounds import HOLDS
from .conftest import family_extremal, random_unit, unit_extremal

TRIALS = 1000

# per-bound campaign configuration (d <= 8, N = 512 throughout)
CAMPAIGN = {
    "THM_2_1": dict(seed=101, d=4, field=COMPLEX),
    "COR_2_2": dict(seed=42, d=4, field=COMPLEX),
    "COR_2_3": dict(seed=102, d=4, field=REAL),
    "COR_2_4": dict(seed=103, d=4, field=COMPLEX),
    "COR_2_5": dict(seed=104, d=4, field=REAL),
    "MULT_A": dict(seed=105, d=4, field=REAL),
    "MULT_B": dict(seed=106, d=4, field=COMPLEX),
    "MULT_C": dict(seed=9, d=4, field=REAL),
    "KARAMATA": dict(seed=107, d=1, field=COMPLEX),
    "THM_3_1": dict(seed=7, d=8, field=REAL, n_family=3),
    "COR_3_2": dict(seed=108, d=8, field=REAL, n_family=3),
    "COR_3_3": dict(seed=109, d=8, field=COMPLEX, n_family=3),
    "COR_3_4": dict(seed=110, d=8, field=REAL, n_family=4),
    "COR_3_5": dict(seed=111, d=8, field=REAL, n_family=3),
    "PROP_4_1": dict(seed=112, d=1, field=COMPLEX),
    "PROP_4_2": dict(seed=113, d=1, field=COMPLEX),
    "PROP_4_3": dict(seed=114, d=1, field=COMPLEX),
}

RECIPES = [
    ("THM_2_1", {"k": 0.5, "alpha": 1.0}, None),
    ("COR_2_2", {"rho": 0.6}, (0.16, 0.16)),
    ("COR_2_3", {"m": 1.0, "M": 4.0}, (0.4, 0.4)),
    ("COR_2_4", {"r": 0.5}, None),
    ("COR_2_5", {"m": 1.0, "M": 4.0}, (0.45, 0.45)),
]


def _line(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{number}] {text}")


@pytest.fixture(scope="module")
def campaign():
    assert set(CAMPAIGN) == set(ALL_BOUND_IDS)
    summaries = {}
    start = time.perf_counter()
    for bound_id, cfg in CAMPAIGN.items():
        summaries[bound_id] = fuzz(bound_id, TRIALS, **cfg)
    elapsed = time.perf_counter() - start
    return summaries, elapsed


def test_criterion_1_soundness_fuzz(campaign):
    summaries, elapsed = campaign
    clean = True
    for bound_id, s in summaries.items():
        ok = s.violated == 0 and s.hypothesis_failed == 0 and s.holds == TRIALS
        clean = clean and ok
        print(f"  {bound_id:10s} {s.holds}/{s.trials} holds, worst margin "
              f"{s.worst_margin:.3e} (seed {s.seed})")
    _line(1, clean, f"soundness fuzz: 17 bounds x {TRIALS} trials, "
          f"zero violations beyond err_budget ({elapsed:.1f}s)")
    assert clean
    for s in summaries.values():
        assert s.counterexamples == []


def test_criterion_2_extremal_tightness(unit_grid):
    e = basis_vector(REAL, 2, 0)
    ok = True
    for bound_id, params, expect in RECIPES:
        f, bound_params = unit_extremal(bound_id, params, unit_grid)
        res = eval_unit_bound(f, e, bound_params, bound_id)
        scale = max(abs(res.lhs), abs(res.rhs), 1.0)
        tight = abs(res.lhs - res.rhs) <= 1e-9 * scale and res.verdict == HOLDS
        ok = ok and tight
        if expect is not None:
            lhs_e, rhs_e = expect
            ok = ok and abs(res.lhs - lhs_e) <= 1e-9 and abs(res.rhs - rhs_e) <= 1e-9
        print(f"  {bound_id:10s} lhs={res.lhs:.12f} rhs={res.rhs:.12f} "
              f"gap={res.margin:.2e}")

    c = ScalarProfile(unit_grid, 1.0 + unit_grid.nodes())
    f, family, profiles = family_extremal(4, c, unit_grid)
    res = eval_family_bound(f, family, BoundParams(dominance_profiles=profiles), "THM_3_1")
    fam_tight = abs(res.lhs - res.rhs) <= 1e-9 * max(abs(res.rhs), 1.0)
    print(f"  THM_3_1    lhs={res.lhs:.12f} rhs={res.rhs:.12f} gap={res.margin:.2e}")
    ok = ok and fam_tight
    _line(2, ok, "extremal recipes achieve |lhs - rhs| <= 1e-9 * scale")
    assert ok


def test_criterion_3_checker_equivalences():
    rng = np.random.default_rng(31415)
    grid = Grid(0.0, 1.0, 64)
    agree_const = agree_profile = agree_complex = 0
    for _ in range(TRIALS):
        e = random_unit(rng, REAL, 3)
        f = GridFunction(grid, REAL,
                         rng.standard_normal((grid.n_nodes, 3)) * rng.uniform(0.3, 2.0))
        m_val = rng.uniform(0.05, 1.0)
        M_val = m_val + rng.uniform(0.0, 3.0)
        m = ScalarProfile.constant(grid, m_val)
        M = ScalarProfile.constant(grid, M_val)
        if check_band(f, e, m, M, "inner").holds == check_band(f, e, m, M, "norm").holds:
            agree_const += 1

        c0 = 0.5 + rng.uniform(0.0, 1.0) * rng.random(grid.n_nodes)
        R = rng.uniform(0.0, 1.0) * c0
        mp = ScalarProfile(grid, c0 - R)
        Mp = ScalarProfile(grid, c0 + R)
        if check_band(f, e, mp, Mp, "inner").holds == check_band(f, e, mp, Mp, "norm").holds:
            agree_profile += 1

        psi = rng.uniform(0.1, math.pi / 2 - 0.1)
        alpha, beta = math.cos(psi), math.sin(psi)
        ec = HVector(COMPLEX, [complex(alpha, beta)])
        z = (rng.standard_normal(grid.n_nodes)
             + 1j * rng.standard_normal(grid.n_nodes)) * rng.uniform(0.3, 2.0)
        fc = GridFunction(grid, COMPLEX, z[:, None])
        if check_band(fc, ec, m, M, "inner").holds == check_band(fc, ec, m, M, "norm").holds:
            agree_complex += 1

    implied = 0
    for _ in range(TRIALS):
        psi = rng.uniform(0.1, math.pi / 2 - 0.1)
        alpha, beta = math.cos(psi), math.sin(psi)
        m_val = rng.uniform(0.05, 1.0)
        M_val = m_val + rng.uniform(0.0, 2.0)
        x = rng.uniform(m_val * alpha, M_val * alpha, grid.n_nodes)
        y = rng.uniform(m_val * beta, M_val * beta, grid.n_nodes)
        f = GridFunction(grid, COMPLEX, (x + 1j * y)[:, None])
        m = ScalarProfile.constant(grid, m_val)
        M = ScalarProfile.constant(grid, M_val)
        box = check_box_complex(f, alpha, beta, m, M)
        band = check_band(f, HVector(COMPLEX, [complex(alpha, beta)]), m, M, "inner")
        if box.holds and band.holds:
            implied += 1

    ok = (agree_const == TRIALS and agree_profile == TRIALS
          and agree_complex == TRIALS and implied == TRIALS)
    print(f"  band forms agree: constants {agree_const}/{TRIALS}, "
          f"profiles {agree_profile}/{TRIALS}, complex {agree_complex}/{TRIALS}; "
          f"box=>band {implied}/{TRIALS}")
    _line(3, ok, "checker equivalences: 100% verdict agreement; box implies band")
    assert ok


def test_criterion_4_chain_and_reduction(campaign):
    summaries, _ = campaign
    chain_ok = all(summaries[b].chain_violations == 0
                   for b in ("COR_2_2", "COR_2_3", "COR_3_2", "COR_3_3"))

    rng = np.random.default_rng(2718)
    grid = Grid(0.0, 1.0, 64)
    reduction_ok = True
    for _ in range(100):
        e = random_unit(rng, REAL, 3)
        family = check_orthonormal([e])
        f = GridFunction(grid, REAL,
                         rng.standard_normal((grid.n_nodes, 3)) * rng.uniform(0.5, 2.0))
        gap = np.maximum(f.norms() - f.projections(e.coords), 0.0) + rng.uniform(0.0, 0.5)
        k = ScalarProfile(grid, gap)
        unit_res = eval_unit_bound(f, e, BoundParams(k=k), "THM_2_1")
        fam_res = eval_family_bound(f, family, BoundParams(dominance_profiles=(k,)),
                                    "THM_3_1")
        scale = abs(unit_res.margin) + abs(fam_res.margin) + 1.0
        if abs(unit_res.margin - fam_res.margin) > 1e-12 * scale:
            reduction_ok = False
    ok = chain_ok and reduction_ok
    print(f"  chain violations: "
          + ", ".join(f"{b}={summaries[b].chain_violations}"
                      for b in ("COR_2_2", "COR_2_3", "COR_3_2", "COR_3_3"))
          + f"; reduction n=1 match: {reduction_ok}")
    _line(4, ok, "Re-form rhs <= norm-form rhs on all fuzz trials; "
          "n=1 family reduction matches the unit bound to 1e-12*scale")
    assert ok


def test_criterion_5_quadrature_quality():
    target = np.array([1.0, 1.0])
    errors = []
    for n in (64, 128, 256, 512):
        grid = Grid(0.0, math.pi / 2, n)
        t = grid.nodes()
        f = GridFunction(grid, REAL, np.stack([np.cos(t), np.sin(t)], axis=1))
        est = bochner_integral(f)
        errors.append(float(np.linalg.norm(est.value.coords - target)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    order_ok = min(orders) >= 3.9

    grid = Grid(0.0, math.pi, 512)
    t = grid.nodes()
    f = GridFunction(grid, REAL, np.stack([np.cos(t), np.sin(t)], axis=1))
    defect_gap = abs(defect(f).value - (math.pi - 2.0))
    defect_ok = defect_gap <= 1e-8

    ok = order_ok and defect_ok
    print(f"  simpson orders {['%.2f' % o for o in orders]}; "
          f"half-circle defect off by {defect_gap:.2e}")
    _line(5, ok, "Simpson order >= 3.9 on N in {64,...,512}; "
          "analytic defect pi - 2 within 1e-8")
    assert ok


def test_criterion_6_erratum_evidence(campaign):
    summaries, _ = campaign
    s = summaries["MULT_C"]
    corrected_ok = s.violated == 0 and s.holds == TRIALS
    margins = np.asarray(s.printed_form_margins)
    # tabulated for inspection, never asserted: the printed variant multiplies
    # ||int f|| and is refuted by the equality cone (see test_bounds)
    print(f"  corrected form: {s.holds}/{s.trials} holds; printed-form margins: "
          f"min {margins.min():.3e} max {margins.max():.3e} "
          f"mean {margins.mean():.3e} negative in {int((margins < 0).sum())} trials")
    _line(6, corrected_ok, "corrected multiplicative-derived additive bound holds "
          "on all trials; printed form tabulated as diagnostic")
    assert corrected_ok


def test_criterion_7_defect_nonnegativity(campaign, unit_grid):
    summaries, _ = campaign
    fuzz_ok = all(s.min_defect_slack >= 0.0 for s in summaries.values())

    worst = math.inf
    for bound_id, params, _ in RECIPES:
        est = defect(unit_extremal(bound_id, params, unit_grid)[0])
        worst = min(worst, est.value + est.err_est)
    c = ScalarProfile(unit_grid, 1.0 + unit_grid.nodes())
    est = defect(family_extremal(4, c, unit_grid)[0])
    worst = min(worst, est.value + est.err_est)
    extremal_ok = worst >= 0.0

    ok = fuzz_ok and extremal_ok
    print(f"  min fuzz defect+err: "
          f"{min(s.min_defect_slack for s in summaries.values()):.3e}; "
          f"min extremal defect+err: {worst:.3e}")
    _line(7, ok, "triangle-inequality defect >= -err on every constructed function")
    assert ok
