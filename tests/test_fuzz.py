from __future__ import annotations

import dataclasses
import importlib
import json

import numpy as np
import pytest

from revtri import ALL_BOUND_IDS, InputError, fuzz, generate_scenario, run, trial_rng
from revtri import bounds as B
from revtri.bounds import FAMILY_BOUNDS
from revtri.cli import main
from revtri.fuzz import MAX_COUNTEREXAMPLE_DUMPS
from revtri import gridfn
from revtri.scenario import scenario_from_dict

F = importlib.import_module("revtri.fuzz")   # the package's name ``fuzz`` is the function


def test_trial_rng_is_counter_based():
    a = trial_rng(42, 7).standard_normal(4)
    b = trial_rng(42, 7).standard_normal(4)
    assert np.array_equal(a, b)
    c = trial_rng(42, 8).standard_normal(4)
    assert not np.array_equal(a, c)
    d = trial_rng(43, 7).standard_normal(4)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("seed, trial", [(-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)])
def test_seed_and_trial_outside_64_bits_are_input_errors(seed, trial):
    with pytest.raises(InputError, match=r"seed and trial must lie in \[0, 2\*\*64\)"):
        trial_rng(seed, trial)
    with pytest.raises(InputError, match=r"seed and trial must lie in"):
        generate_scenario("COR_2_2", seed=seed, trial=trial)


def test_largest_64_bit_seed_still_runs():
    assert fuzz("COR_2_2", trials=2, seed=2 ** 64 - 1).holds == 2


@pytest.mark.parametrize("bound_id", [B.THM_3_1, B.COR_3_3, B.COR_3_5])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_projection_product_per_family_trial(bound_id, field, n, monkeypatch):
    # the generator fits its constants to the (N+1, n) table run() judges: one product,
    # taken for the trial's chunk and kept on f
    products = []
    project = gridfn._project

    def counting(*args):
        products.append(args[1].shape)
        return project(*args)
    monkeypatch.setattr(gridfn, "_project", counting)
    monkeypatch.setattr(F, "_project", counting)
    for trial in range(3):
        products.clear()
        run(generate_scenario(bound_id, seed=77, trial=trial, d=4, field=field, n_family=n))
        assert products == [(1, n, 4)]


def test_trials_are_order_independent():
    # scenario for trial k does not depend on trials before it
    direct = generate_scenario("COR_2_3", seed=5, trial=17, d=4)
    batch = [generate_scenario("COR_2_3", seed=5, trial=t, d=4) for t in range(20)]
    assert np.array_equal(direct.function.params["values"],
                          batch[17].function.params["values"])


@pytest.mark.parametrize("bound_id", ALL_BOUND_IDS)
def test_generators_satisfy_hypotheses(bound_id):
    n_family = 3 if bound_id in FAMILY_BOUNDS else 3
    summary = fuzz(bound_id, trials=25, seed=1234, d=4, field="real",
                   n_family=n_family)
    assert summary.hypothesis_failed == 0
    assert summary.violated == 0
    assert summary.holds == 25
    assert summary.counterexamples == []


def test_fuzz_determinism():
    a = fuzz("COR_2_2", trials=50, seed=42, d=4, field="complex")
    b = fuzz("COR_2_2", trials=50, seed=42, d=4, field="complex")
    assert a.to_dict() == b.to_dict()
    assert a.worst_margin == b.worst_margin


def test_fuzz_seed_sensitivity():
    a = fuzz("COR_2_2", trials=20, seed=42, d=4)
    b = fuzz("COR_2_2", trials=20, seed=43, d=4)
    assert a.worst_margin != b.worst_margin


def test_fuzz_reports_are_reproducible_scenarios():
    summary = fuzz("THM_2_1", trials=5, seed=9, d=3, keep_reports=True)
    assert len(summary.reports) == 5
    # re-running the generated scenario yields the identical result
    scenario = generate_scenario("THM_2_1", seed=9, trial=3, d=3)
    report = run(scenario)
    assert report.results[0].margin == summary.reports[3].results[0].margin


def test_fuzz_defect_nonnegative_within_error():
    summary = fuzz("COR_2_4", trials=50, seed=3, d=4)
    assert summary.min_defect_slack >= 0.0


def test_fuzz_validation():
    with pytest.raises(InputError):
        fuzz("NOPE", trials=5, seed=1)
    with pytest.raises(InputError):
        fuzz("COR_2_2", trials=0, seed=1)
    with pytest.raises(InputError):
        fuzz("THM_3_1", trials=1, seed=1, d=2, n_family=3)


def test_forced_complex_line_bounds():
    scenario = generate_scenario("KARAMATA", seed=2, trial=0, d=8, field="real")
    assert scenario.field == "complex"
    assert scenario.d == 1
    scenario = generate_scenario("PROP_4_3", seed=2, trial=0)
    assert scenario.field == "complex" and scenario.d == 1


def test_mult_c_printed_margins_collected():
    summary = fuzz("MULT_C", trials=20, seed=11, d=4)
    assert len(summary.printed_form_margins) == 20
    data = summary.to_dict()
    assert "printed_form" in data


def _patched(monkeypatch, bound_id: str, change):
    """Pass the outcome of ``bound_id``'s row (hypothesis, lhs, rhs, err, rhs_terms,
    diagnostics) through ``change``."""
    spec, outcome = B.BOUNDS[bound_id], B._outcome
    monkeypatch.setattr(B, "_outcome", lambda c, s, p: (
        change(*outcome(c, s, p)) if s is spec else outcome(c, s, p)))


def _halved_rhs(hyp, lhs, rhs, err, terms, diags):
    return hyp, lhs, rhs / 2.0, err, terms, diags


def test_violations_are_counted_and_dumped(monkeypatch, tmp_path, capsys):
    trials, seed = 20, 7
    with monkeypatch.context() as patch:
        _patched(patch, "THM_2_1", _halved_rhs)
        verdicts = [run(generate_scenario("THM_2_1", seed, t)).results[0].verdict
                    for t in range(trials)]
        summary = fuzz("THM_2_1", trials, seed)
        out = tmp_path / "fuzz.json"
        code = main(["fuzz", "--bound", "THM_2_1", "--trials", str(trials), "--seed", str(seed),
                     "--out", str(out)])
    violated = verdicts.count(B.VIOLATED)
    assert MAX_COUNTEREXAMPLE_DUMPS < violated < trials
    assert (summary.violated, summary.holds, summary.hypothesis_failed) == (
        violated, trials - violated, 0)
    assert code == 1 and f"{violated} violated" in capsys.readouterr().out
    dumps = json.loads(out.read_text(encoding="utf-8"))["counterexamples"]
    assert len(dumps) == len(summary.counterexamples) == MAX_COUNTEREXAMPLE_DUMPS
    for dump in dumps:  # a dumped trial holds under the real evaluator
        assert verdicts[dump["trial"]] == B.VIOLATED
        assert run(scenario_from_dict(dump["scenario"])).results[0].verdict == B.HOLDS


def test_chain_violations_are_counted(monkeypatch, tmp_path, capsys):
    """A weak form below the bound breaks the chain rhs <= weak_rhs in every trial."""
    trials, seed = 4, 7
    assert fuzz("COR_2_2", trials, seed).chain_violations == 0
    _patched(monkeypatch, "COR_2_2", lambda hyp, lhs, rhs, err, terms, diags: (
        hyp, lhs, rhs, err, {**terms, "weak_rhs": rhs / 2.0}, diags))
    assert fuzz("COR_2_2", trials, seed).chain_violations == trials
    out = tmp_path / "fuzz.json"
    assert main(["fuzz", "--bound", "COR_2_2", "--trials", str(trials), "--seed", str(seed),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text(encoding="utf-8"))["chain_violations"] == trials


def test_failed_hypotheses_are_counted(monkeypatch, capsys):
    _patched(monkeypatch, "COR_2_2", lambda hyp, *rest: (
        dataclasses.replace(hyp, holds=False), *rest))
    summary = fuzz("COR_2_2", 3, 7)
    assert (summary.hypothesis_failed, summary.holds, summary.violated) == (3, 0, 0)
    assert main(["fuzz", "--bound", "COR_2_2", "--trials", "3", "--seed", "7"]) == 2
