"""One hypothesis path: ``bounds.evaluate`` judges a bound's hypothesis through its shape,
never through the public ``check_*`` functions, and gives what they give.

For each bound with a unit reference or a direction, real and complex, on 3 fuzz trials,
the hypothesis report of ``evaluate`` equals the public checker's, called as the
benchmark's traced replay (``bench/replay.py``) calls it: a number as its constant
profile, a direction as the unit vector alpha + i beta.  With all six public checkers
made to raise, every bound's reports are unchanged.  A vanishing or a real f raises the
same error through both routes."""

from __future__ import annotations

import numpy as np
import pytest

from revtri import bounds as B
from revtri.errors import DegeneracyError, InputError
from revtri.fuzz import generate_scenario
from revtri.gridfn import Grid, GridFunction, ScalarProfile
from revtri.hilbert import COMPLEX, DEFAULT_ORTHO_TOL, REAL, HVector
from revtri.scenario import report_to_csv, report_to_json, run

from .test_residual_kernels import evaluate_bounds

ROW_BOUNDS = tuple(b for b, spec in B.BOUNDS.items() if spec.reference != B.REF_FAMILY)
PUBLIC_CHECKERS = ("check_dominance", "check_scaled_dominance", "check_ball", "check_band",
                   "check_box_complex", "check_arg")


def _public_check(f, reference, bound_id, p, tol) -> B.HypothesisReport:
    """The public checker behind a non-family bound's hypothesis."""
    const = lambda value: ScalarProfile.constant(f.grid, value)  # noqa: E731
    if B.BOUNDS[bound_id].reference == B.REF_DIRECTION:
        e, tau_on = HVector(COMPLEX, [complex(reference.alpha, reference.beta)]), DEFAULT_ORTHO_TOL
    else:
        e, tau_on = reference.e, tol.tau_on
    calls = {
        B.THM_2_1: lambda: B.check_dominance(f, e, p.k, tol.tau_hyp, tau_on),
        B.COR_2_2: lambda: B.check_ball(f, e, const(p.rho), tol.tau_hyp, tau_on),
        B.COR_2_3: lambda: B.check_band(f, e, const(p.m), const(p.M), "inner", tol.tau_hyp,
                                        tau_on),
        B.COR_2_4: lambda: B.check_ball(f, e, p.r, tol.tau_hyp, tau_on),
        B.COR_2_5: lambda: B.check_band(f, e, p.m_profile, p.M_profile, "norm", tol.tau_hyp,
                                        tau_on),
        B.MULT_A: lambda: B.check_scaled_dominance(f, e, p.K, tol.tau_hyp, tau_on),
        B.KARAMATA: lambda: B.check_arg(f, p.theta, tol.tau_hyp),
        B.PROP_4_3: lambda: B.check_box_complex(f, reference.alpha, reference.beta,
                                                p.m_profile, p.M_profile, tol.tau_hyp),
    }
    calls[B.MULT_B] = calls[B.PROP_4_1] = calls[B.COR_2_2]
    calls[B.MULT_C] = calls[B.PROP_4_2] = calls[B.COR_2_3]
    return calls[bound_id]()


def _tree(report: B.HypothesisReport, slack: bool = True):
    """Every field of the report and of its sub-reports, the slack profile as bytes (unless
    ``slack`` is False: then whether the report has no kernel)."""
    subs = report.sub_reports
    return (report.condition_id, report.holds, report.worst_violation, report.worst_node,
            report.tol, report.slack_profile.tobytes() if slack else report.kernel is None,
            None if subs is None else [_tree(s, slack) for s in subs])


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("bound_id", ROW_BOUNDS)
def test_evaluate_reports_what_the_public_checker_reports(bound_id, field):
    assert len(ROW_BOUNDS) == 12
    for trial in range(3):
        scenario = generate_scenario(bound_id, 2604, trial, field=field, n_panels=64)
        [entry] = scenario.bounds
        [result] = evaluate_bounds(scenario)
        public = _public_check(scenario.f, scenario.reference, bound_id, entry.params,
                               scenario.tolerances)
        assert _tree(result.hypothesis) == _tree(public)


def _texts(scenario) -> str:
    report = run(scenario)
    slack = b"".join(r.hypothesis.slack_profile.tobytes() for r in evaluate_bounds(scenario))
    return report_to_json(report) + report_to_csv(report) + slack.hex()


def _refuse(*args, **kwargs):
    raise AssertionError("a public checker was called")


def test_evaluate_calls_no_public_checker(monkeypatch):
    """Each checker's code is replaced, so that a call raises whichever name or reference
    it is reached by."""
    scenarios = [generate_scenario(bound_id, 2604, 0, field=field, n_panels=64)
                 for bound_id in B.ALL_BOUND_IDS for field in (REAL, COMPLEX)]
    texts = [_texts(s) for s in scenarios]
    for name in PUBLIC_CHECKERS:
        monkeypatch.setattr(getattr(B, name), "__code__", _refuse.__code__)
    with pytest.raises(AssertionError, match="a public checker was called"):
        B.check_ball(scenarios[0].f, scenarios[0].reference.e, 0.5)
    assert [_texts(s) for s in scenarios] == texts


def _complex_f(values) -> GridFunction:
    values = np.asarray(values, dtype=np.complex128)
    return GridFunction(Grid(0.0, 1.0, len(values) - 1), COMPLEX, values[:, None])


def _outcomes(f, bound_id, public):
    """(type, text) of the error through ``evaluate`` and through the public checker."""
    alpha = beta = np.sqrt(0.5)
    params = B.BoundParams(theta=0.5, m_profile=ScalarProfile.constant(f.grid, 1.0),
                           M_profile=ScalarProfile.constant(f.grid, 2.0))
    outcomes = []
    for route in (lambda: B.evaluate(f, B.Reference(B.REF_DIRECTION, alpha=alpha, beta=beta),
                                     params, bound_id),
                  lambda: public(f, alpha, beta, params)):
        with pytest.raises((InputError, DegeneracyError)) as exc:
            route()
        outcomes.append((type(exc.value), str(exc.value)))
    return outcomes


def test_a_vanishing_or_real_f_raises_alike_through_both_routes():
    arg = lambda f, alpha, beta, p: B.check_arg(f, p.theta)  # noqa: E731
    box = lambda f, alpha, beta, p: B.check_box_complex(  # noqa: E731
        f, alpha, beta, p.m_profile, p.M_profile)
    vanishing = _complex_f([1.0 + 0.5j, 0.0, 1.0 - 0.5j])
    real = GridFunction(Grid(0.0, 1.0, 2), REAL, np.ones((3, 1)))
    assert _outcomes(vanishing, B.KARAMATA, arg) == [
        (DegeneracyError, "argument undefined: f vanishes at node 1")] * 2
    complex_only = [(InputError, "this check needs a d=1 complex grid function")] * 2
    assert _outcomes(real, B.KARAMATA, arg) == complex_only
    assert _outcomes(real, B.PROP_4_3, box) == complex_only
