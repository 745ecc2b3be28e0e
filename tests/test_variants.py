"""The function-variant registry: parse validation of every declared key, exit
code 3 through the CLI, and the README's variant table."""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

from revtri import ScenarioError, run
from revtri.cli import main
from revtri.gridfn import (
    NUMBER,
    PROFILE,
    SAMPLES,
    SIGNED_PROFILE,
    VARIANTS,
    VECTOR,
    VECTORS,
)
from revtri.scenario import scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent
N_PANELS = 16


def _scenario(field: str, d: int, function: dict, reference: dict, bound: dict) -> dict:
    return {"id": f"variant-{function['variant']}", "field": field, "d": d,
            "interval": [0.0, 1.0], "N": N_PANELS, "function": function,
            "reference": reference, "bounds": [bound], "tolerances": {}}


#: one valid scenario per variant, with every optional key present
BASES = {
    "samples": _scenario(
        "real", 2, {"variant": "samples",
                    "values": [[1.0, 0.02 * j] for j in range(N_PANELS + 1)]},
        {"e": [1.0, 0.0]}, {"bound_id": "COR_2_2", "params": {"rho": 0.5}}),
    "cone": _scenario(
        "real", 2, {"variant": "cone", "e": [1.0, 0.0], "u": [0.0, 1.0],
                    "alpha": 1.0, "beta": 0.3},
        {"e": [1.0, 0.0]}, {"bound_id": "COR_2_2", "params": {"rho": 0.5}}),
    "ball_perturbation": _scenario(
        "real", 3, {"variant": "ball_perturbation", "e": [1.0, 0.0, 0.0], "rho": 0.3,
                    "omega": 2.0, "u": [0.0, 1.0, 0.0], "v": [0.0, 0.0, 1.0]},
        {"e": [1.0, 0.0, 0.0]}, {"bound_id": "COR_2_2", "params": {"rho": 0.5}}),
    "family_symmetric": _scenario(
        "real", 2, {"variant": "family_symmetric", "family": [[1.0, 0.0], [0.0, 1.0]],
                    "c": {"constant": 1.0}},
        {"family": [[1.0, 0.0], [0.0, 1.0]]},
        {"bound_id": "THM_3_1", "params": {"M_i": [{"constant": 0.5}, {"constant": 0.5}]}}),
    "complex_curve": _scenario(
        "complex", 1, {"variant": "complex_curve", "r": {"constant": 1.0},
                       "phi": {"linear": [-0.2, 0.2]}},
        {"alpha_beta": [0.6, 0.8]}, {"bound_id": "KARAMATA", "params": {"theta": 0.5}}),
}

#: a value of each kind that its parser rejects
MALFORMED = {
    SAMPLES: "rows",
    VECTOR: "e",
    VECTORS: [],
    NUMBER: "one",
    PROFILE: {"cubic": [1.0]},
    SIGNED_PROFILE: {"cubic": [1.0]},
}


def _required(variant: str) -> list[str]:
    spec = VARIANTS[variant]
    return [key for key in spec.keys if key not in spec.optional]


def _cases() -> list:
    """(case id, variant, mutation of the function object, expected path suffix)."""
    cases = []
    for variant, spec in VARIANTS.items():
        for key in _required(variant):
            cases.append((f"{variant}-missing-{key}", variant,
                          lambda fn, k=key: fn.pop(k), ""))
        cases.append((f"{variant}-unknown-key", variant,
                      lambda fn: fn.update(colour="blue"), ""))
        for key, kind in spec.keys.items():
            cases.append((f"{variant}-malformed-{key}", variant,
                          lambda fn, k=key, v=MALFORMED[kind]: fn.update({k: v}), f".{key}"))
    for name, value in (("unknown", "spiral"), ("list", ["cone"])):
        cases.append((f"variant-{name}", "cone",
                      lambda fn, v=value: fn.update(variant=v), ".variant"))
    cases.append(("variant-missing", "cone", lambda fn: fn.pop("variant"), ".variant"))
    return cases


CASES = _cases()


def _mutated(variant: str, mutate) -> dict:
    data = copy.deepcopy(BASES[variant])
    mutate(data["function"])
    return data


def test_registry_is_consistent():
    assert set(BASES) == set(VARIANTS)
    for spec in VARIANTS.values():
        assert set(spec.optional) <= set(spec.keys)
        assert set(spec.keys.values()) <= set(MALFORMED)
        assert "variant" not in spec.keys


@pytest.mark.parametrize("variant", sorted(BASES))
def test_base_scenarios_are_valid(variant):
    data = BASES[variant]
    assert set(data["function"]) == {"variant", *VARIANTS[variant].keys}
    report = run(scenario_from_dict(copy.deepcopy(data)))
    assert report.rollup == "holds"


@pytest.mark.parametrize("variant", sorted(v for v in VARIANTS if VARIANTS[v].optional))
def test_optional_keys_may_be_omitted(variant):
    data = copy.deepcopy(BASES[variant])
    for key in VARIANTS[variant].optional:
        del data["function"][key]
    assert run(scenario_from_dict(data)).rollup == "holds"


@pytest.mark.parametrize("case_id, variant, mutate, suffix", CASES, ids=[c[0] for c in CASES])
def test_bad_function_fails_at_path(case_id, variant, mutate, suffix, tmp_path, capsys):
    data = _mutated(variant, mutate)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert exc.value.path == f"scenario.function{suffix}"
    if "-missing-" in case_id:
        assert case_id.rsplit("-", 1)[1] in exc.value.reason
    path = tmp_path / f"{case_id}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert f"{path.name}.function{suffix}:" in captured.err
    assert captured.out == ""


# --------------------------------------------------------------------------
# the README documents the registry

def test_readme_variant_table_matches_registry():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Function variants", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \| (.+?) \| .+ \|$", section, flags=re.MULTILINE)
    table = {variant: (keys.split("; "), optional) for variant, keys, optional in rows}
    assert list(table) == list(VARIANTS)
    for variant, spec in VARIANTS.items():
        keys, optional = table[variant]
        assert keys == [f"`{key}` {kind}" for key, kind in spec.keys.items()], variant
        assert optional == (", ".join(f"`{key}`" for key in spec.optional) or "—"), variant
