"""The bound registry: parse validation of every declared parameter, the same
validation at evaluation time, non-finite input, and the README's table."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from revtri import ALL_BOUND_IDS, BoundParams, ScenarioError, generate_scenario, run
from revtri import bounds as B
from revtri.bounds import BOUNDS, LIST_KINDS, PROFILE, PROFILES
from revtri.cli import main
from revtri.errors import InputError, ParamError
from revtri.gridfn import profile_of
from revtri.hilbert import check_orthonormal
from revtri.scenario import BoundEntry, scenario_from_dict, scenario_to_dict

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
N_FAMILY = 2


def _valid(bound_id: str) -> dict:
    scenario = generate_scenario(bound_id, seed=5, trial=0, d=2, n_family=N_FAMILY, n_panels=16)
    return scenario_to_dict(scenario)


def _with_params(bound_id: str, params: dict) -> dict:
    data = _valid(bound_id)
    data["bounds"][0]["params"].update(params)
    return data


def test_registry_covers_every_bound():
    assert tuple(BOUNDS) == ALL_BOUND_IDS
    fields = {f.name for f in dataclasses.fields(BoundParams)}
    for spec in BOUNDS.values():
        keys = [p.key for p in spec.params]
        assert len(set(keys)) == len(keys)
        for p in spec.params:
            assert p.field in fields and (p.upper is None or p.upper in fields)
        assert spec.reference in (B.REF_UNIT, B.REF_FAMILY, B.REF_DIRECTION)
        assert (spec.reference == B.REF_FAMILY) == any(p.kind in LIST_KINDS for p in spec.params)


@pytest.mark.parametrize("bound_id", ALL_BOUND_IDS)
def test_missing_key_fails_at_params(bound_id):
    for p in BOUNDS[bound_id].params:
        data = _valid(bound_id)
        del data["bounds"][0]["params"][p.key]
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(data)
        assert exc.value.path == "scenario.bounds[0].params"
        assert p.key in exc.value.reason


@pytest.mark.parametrize("bound_id", [b for b in ALL_BOUND_IDS
                                      if BOUNDS[b].reference == B.REF_FAMILY])
def test_family_list_length_checked(bound_id):
    for p in BOUNDS[bound_id].params:
        data = _valid(bound_id)
        raw = data["bounds"][0]["params"]
        raw[p.key] = raw[p.key][:1]
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(data)
        assert exc.value.path == f"scenario.bounds[0].params.{p.key}"
        assert f"exactly {N_FAMILY} entries" in exc.value.reason


#: (bound_id, params replacing the valid ones, offending key with entry index)
OUT_OF_RANGE = [
    ("COR_2_2", {"rho": 1.0}, "rho"),
    ("COR_2_2", {"rho": 0.0}, "rho"),
    ("MULT_B", {"rho": 1.0 - 1e-10}, "rho"),
    ("PROP_4_1", {"rho": -0.5}, "rho"),
    ("COR_3_2", {"rho_i": [0.5, 1.5]}, "rho_i[1]"),
    ("COR_2_3", {"m": 0.0, "M": 4.0}, "m"),
    ("MULT_C", {"m": -1.0, "M": 4.0}, "m"),
    ("PROP_4_2", {"m": 5.0, "M": 4.0}, "m"),
    ("COR_3_3", {"m_i": [1.0, 0.0], "M_i": [2.0, 2.0]}, "m_i[1]"),
    ("COR_3_3", {"m_i": [3.0, 1.0], "M_i": [2.0, 2.0]}, "m_i[0]"),
    ("MULT_A", {"K": 0.5}, "K"),
    ("KARAMATA", {"theta": 0.0}, "theta"),
    ("KARAMATA", {"theta": math.pi / 2}, "theta"),
    ("COR_2_5", {"m": {"constant": 2.0}, "M": {"constant": 1.0}}, "m"),
    ("PROP_4_3", {"k": {"linear": [0.5, 2.0]}, "K": {"constant": 1.0}}, "k"),
    ("COR_3_5", {"m_i": [{"constant": 1.0}, {"constant": 3.0}],
                 "M_i": [{"constant": 2.0}, {"constant": 2.0}]}, "m_i[1]"),
]

#: negative profiles are rejected while the profile itself is parsed
NEGATIVE_PROFILES = [
    ("THM_2_1", {"k": {"constant": -1.0}}, "k"),
    ("COR_2_4", {"r": {"linear": [0.5, -0.5]}}, "r"),
    ("THM_3_1", {"M_i": [{"constant": 0.5}, {"constant": -0.5}]}, "M_i[1]"),
    ("COR_3_4", {"r_i": [{"constant": 0.5}, {"linear": [0.5, -0.5]}]}, "r_i[1]"),
]


def test_every_range_rule_has_a_case():
    ruled = {(b, p.key) for b, spec in BOUNDS.items() for p in spec.params if p.rule}
    covered = {(b, key.split("[")[0]) for b, _, key in OUT_OF_RANGE}
    assert ruled == covered


@pytest.mark.parametrize("bound_id, params, key", OUT_OF_RANGE + NEGATIVE_PROFILES)
def test_out_of_range_fails_at_key(bound_id, params, key):
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(_with_params(bound_id, params))
    assert exc.value.path == f"scenario.bounds[0].params.{key}"
    assert re.search(r"\.params\.\w+(\[\d+\])?$", exc.value.path)


def _bound_params(bound_id: str, raw: dict, grid) -> BoundParams:
    """BoundParams built without validation, to reach the evaluation-time check."""
    def profile(spec):
        return profile_of(spec, grid, nonnegative=False)
    fields = {}
    for p in BOUNDS[bound_id].params:
        value = raw[p.key]
        if p.kind == PROFILE:
            value = profile(value)
        elif p.kind in LIST_KINDS:
            value = tuple(profile(v) if p.kind == PROFILES else v for v in value)
        fields[p.field] = value
    return BoundParams(**fields)


@pytest.mark.parametrize("bound_id, params, key", OUT_OF_RANGE)
def test_evaluation_applies_the_same_rule(bound_id, params, key):
    scenario = scenario_from_dict(_valid(bound_id))
    raw = {**_valid(bound_id)["bounds"][0]["params"], **params}
    entry = BoundEntry(bound_id, _bound_params(bound_id, raw, scenario.grid))
    with pytest.raises(ParamError) as exc:
        run(dataclasses.replace(scenario, bounds=(entry,)))
    assert exc.value.path == key


def test_cli_rejects_out_of_range_with_exit_3(tmp_path, capsys):
    path = tmp_path / "bad_theta.json"
    path.write_text(json.dumps(_with_params("KARAMATA", {"theta": 2.0})), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert "params.theta" in capsys.readouterr().err


# --------------------------------------------------------------------------
# non-finite numbers and negative tolerances never reach a verdict

def _cor23() -> dict:
    return json.loads((DATA / "cor23_extremal.json").read_text(encoding="utf-8"))


def _set(data: dict, path: tuple, value) -> dict:
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return data


NON_FINITE = {
    "M_infinity": (("bounds", 0, "params", "M"), math.inf, "bounds[0].params.M"),
    "m_nan": (("bounds", 0, "params", "m"), math.nan, "bounds[0].params.m"),
    "interval_infinity": (("interval", 1), math.inf, "interval[1]"),
    "tau_hyp_nan": (("tolerances", "tau_hyp"), math.nan, "tolerances.tau_hyp"),
    "tau_hyp_negative": (("tolerances", "tau_hyp"), -1.0, "tolerances.tau_hyp"),
    "tau_on_negative": (("tolerances", "tau_on"), -1e-10, "tolerances.tau_on"),
    "bound_slack_infinity": (("tolerances", "bound_slack"), math.inf, "tolerances.bound_slack"),
    "e_nan": (("reference", "e", 1), math.nan, "reference.e"),
    "cone_beta_infinity": (("function", "beta"), math.inf, "function.beta"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_or_negative_rejected(case, tmp_path, capsys):
    location, value, where = NON_FINITE[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(_set(_cor23(), location, value)), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert f"{path.name}.{where}:" in captured.err
    assert "holds" not in captured.out and "violated" not in captured.out


THM_3_1_ENTRY = {"bound_id": "THM_3_1", "params": {"M_i": [{"constant": 0.5}]}}

#: case -> (location, malformed value, error path): structure the file format forbids
STRUCTURAL = {
    "id_empty": (("id",), "", "id"),
    "field_unknown": (("field",), "quaternion", "field"),
    "d_bool": (("d",), True, "d"),
    "interval_short": (("interval",), [0.0], "interval"),
    "interval_reversed": (("interval",), [1.0, 0.0], "interval"),
    "N_float": (("N",), 512.0, "N"),
    "N_beyond_intp": (("N",), 10 ** 400, "N"),
    "tolerances_list": (("tolerances",), [], "tolerances"),
    "reference_two_kinds": (("reference",), {"e": [1.0, 0.0], "alpha_beta": [1.0, 0.0]},
                            "reference"),
    "reference_unknown_kind": (("reference",), {"f": [1.0, 0.0]}, "reference"),
    "reference_short_vector": (("reference", "e"), [1.0], "reference.e"),
    "alpha_beta_single": (("reference",), {"alpha_beta": [1.0]}, "reference.alpha_beta"),
    "bound_entry_number": (("bounds",), [5], "bounds[0]"),
    "bound_id_list": (("bounds", 0, "bound_id"), ["COR_2_3"], "bounds[0].bound_id"),
    "params_list": (("bounds", 0, "params"), [], "bounds[0].params"),
    "reference_kind_mismatch": (("bounds", 0), THM_3_1_ENTRY, "bounds[0]"),
}


@pytest.mark.parametrize("case", sorted(STRUCTURAL))
def test_structural_error_names_its_path(case, tmp_path, capsys):
    location, value, where = STRUCTURAL[case]
    data = _set(_cor23(), location, value)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert exc.value.path == f"scenario.{where}"
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path.name}.{where}: ")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


@pytest.mark.parametrize("bound_id, reference, message", [
    ("THM_9_9", "unit", "unknown bound id"),
    ("COR_2_3", "family", "needs a unit reference vector"),
    ("THM_3_1", "unit", "needs a family with the field and dimension of f"),
])
def test_evaluate_rejects_a_reference_or_id_that_does_not_fit(bound_id, reference, message):
    scenario = scenario_from_dict(_cor23())
    e = scenario.reference.e
    ref = (scenario.reference if reference == "unit" else
           B.Reference(B.REF_FAMILY, family=check_orthonormal([e])))
    with pytest.raises(InputError, match=message):
        B.evaluate(scenario.f, ref, scenario.bounds[0].params, bound_id)


def test_non_finite_samples_checked_once(tmp_path, capsys):
    data = _valid("COR_2_2")
    data["function"]["values"][7][1] = math.nan
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert exc.value.path == "scenario.function.values"
    data = _valid("COR_2_5")
    data["bounds"][0]["params"]["M"]["samples"][3] = math.inf
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert exc.value.path == "scenario.bounds[0].params.M"


# --------------------------------------------------------------------------
# the README documents the registry

RANGE_TEXT = {
    B.require_radius: "in (0, 1)",
    B.require_band: "0 < {key} ≤ {upper}",
    B.require_band_profiles: "{key}(t) ≤ {upper}(t)",
    B.require_K: "≥ 1",
    B.require_theta: "in (0, π/2)",
}


def _documented(spec) -> list[str]:
    keys = {p.field: p.key for p in spec.params}
    cells = []
    for p in spec.params:
        text = f"`{p.key}` {p.kind}"
        if p.rule is not None:
            text += ", " + RANGE_TEXT[p.rule].format(key=p.key, upper=keys.get(p.upper))
        cells.append(text)
    return cells


def test_readme_params_table_matches_registry():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Bound parameters", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (.+) \|$", section, flags=re.MULTILINE)
    table = {bound_id: (kind, params.split("; ")) for bound_id, kind, params in rows}
    assert list(table) == list(BOUNDS)
    for bound_id, spec in BOUNDS.items():
        assert table[bound_id] == (spec.reference, _documented(spec)), bound_id
