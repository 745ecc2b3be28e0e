from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import optimize

from revtri import (
    REAL,
    BoundParams,
    FunctionSpec,
    Grid,
    InputError,
    OrthonormalFamily,
    ScalarProfile,
    basis_vector,
    bochner_integral,
    defect,
    eval_family_bound,
    eval_unit_bound,
    extremal_scenario,
    inner,
    materialize,
    norm,
    profile_of,
    run,
    save_scenario,
    scenario_to_dict,
)
from revtri import extremal, gridfn
from revtri.bounds import BOUNDS, HOLDS
from revtri.cli import build_parser, main
from revtri.extremal import RECIPES, recipe_of
from revtri.fuzz import GENERATORS
from revtri.sweep import _base_params, _sweepable, sweep
from .conftest import cone_recipe, family_extremal, unit_extremal

#: The bounds whose (hypothesis shape, reference kind) has a recipe.
RECIPE_BOUNDS = sorted(filter(recipe_of, BOUNDS))

# ---------------------------------------------------------------------------
# independent oracles: solve the node-wise equality conditions numerically.
# Each bound's equality forces two conditions on the cone amplitudes
# (alpha, beta); we solve them with scipy instead of the closed forms and
# require agreement.


def oracle_thm21(k, alpha):
    # dominance tight: sqrt(alpha^2 + beta^2) = alpha + k
    fn = lambda beta: math.hypot(alpha, beta) - alpha - k
    return optimize.brentq(fn, 0.0, 10.0 * (alpha + k))


def oracle_two_conditions(norm_target_sq, center, radius):
    # ||f||^2 = norm_target_sq and ||f - center*e|| = radius
    def system(p):
        a, b = p
        return [a * a + b * b - norm_target_sq,
                (a - center) ** 2 + b * b - radius ** 2]
    sol = optimize.fsolve(system, x0=[norm_target_sq ** 0.5, radius], full_output=False)
    return float(sol[0]), float(abs(sol[1]))


def oracle_cor25(m, M):
    # maximize the dominance gap sqrt(a^2+b^2) - a on the band boundary circle
    # by locating the stationary point of the gap (finite-difference derivative)
    c0, R = 0.5 * (M + m), 0.5 * (M - m)

    def gap(phi):
        return math.hypot(c0 + R * math.cos(phi), R * math.sin(phi)) \
            - (c0 + R * math.cos(phi))

    h = 1e-6
    dgap = lambda phi: (gap(phi + h) - gap(phi - h)) / (2 * h)
    phi = optimize.brentq(dgap, 0.1, math.pi - 0.1, xtol=1e-13)
    return c0 + R * math.cos(phi), abs(R * math.sin(phi))


def test_thm21_recipe_vs_oracle():
    _, beta, expected_defect = cone_recipe("THM_2_1", {"k": 0.5, "alpha": 1.0})
    assert beta == pytest.approx(oracle_thm21(0.5, 1.0), abs=1e-10)
    assert expected_defect == pytest.approx(0.5)


def test_cor22_recipe_vs_oracle():
    rho = 0.6
    alpha, beta, expected_defect = cone_recipe("COR_2_2", {"rho": rho})
    a, b = oracle_two_conditions(1.0 - rho * rho, 1.0, rho)
    assert alpha == pytest.approx(a, abs=1e-10)
    assert beta == pytest.approx(b, abs=1e-10)
    assert (alpha, beta) == (pytest.approx(0.64), pytest.approx(0.48))
    assert expected_defect == pytest.approx(0.16, abs=1e-13)


def test_cor23_recipe_vs_oracle():
    m, M = 1.0, 4.0
    alpha, beta, expected_defect = cone_recipe("COR_2_3", {"m": m, "M": M})
    a, b = oracle_two_conditions(m * M, 0.5 * (M + m), 0.5 * (M - m))
    assert alpha == pytest.approx(a, abs=1e-9)
    assert beta == pytest.approx(b, abs=1e-9)
    assert (alpha, beta) == (pytest.approx(1.6), pytest.approx(1.2))
    assert expected_defect == pytest.approx(0.4, abs=1e-13)


def test_cor24_recipe_vs_oracle():
    r = 0.5
    alpha, beta, expected_defect = cone_recipe("COR_2_4", {"r": r})
    a, b = oracle_two_conditions(1.0, 1.0, r)  # tightness forces ||f|| = 1
    assert alpha == pytest.approx(a, abs=1e-10)
    assert beta == pytest.approx(b, abs=1e-10)
    assert alpha == pytest.approx(0.875)
    assert beta == pytest.approx(0.5 * math.sqrt(1 - 1 / 16.0))
    assert expected_defect == pytest.approx(0.125)


def test_cor25_recipe_vs_oracle():
    m, M = 1.0, 4.0
    alpha, beta, expected_defect = cone_recipe("COR_2_5", {"m": m, "M": M})
    a, b = oracle_cor25(m, M)
    assert alpha == pytest.approx(a, abs=1e-8)
    assert beta == pytest.approx(b, abs=1e-8)
    assert alpha == pytest.approx(2.05)
    assert beta == pytest.approx(math.sqrt(2.0475))
    assert expected_defect == pytest.approx(0.45, abs=1e-13)


def test_recipe_range_validation():
    with pytest.raises(InputError):
        extremal_scenario("COR_2_2", {"rho": 1.0})
    with pytest.raises(InputError):
        extremal_scenario("COR_2_4", {"r": 1.5})
    with pytest.raises(InputError):
        extremal_scenario("THM_2_1", {"k": -0.5})
    with pytest.raises(InputError):
        extremal_scenario("MULT_A", {})


@pytest.mark.parametrize("bound_id, params, key", [
    ("THM_2_1", {"alpha": 1.0}, "k"),
    ("COR_2_2", {}, "rho"),
    ("COR_2_3", {"m": 1.0}, "M"),
    ("COR_2_4", {}, "r"),
    ("COR_2_5", {"M": 4.0}, "m"),
])
def test_missing_recipe_parameter_is_an_input_error(bound_id, params, key):
    with pytest.raises(InputError, match=f"^{bound_id} recipe needs parameter '{key}'$"):
        extremal_scenario(bound_id, params)


def test_infinite_band_recipe_is_not_finite():
    # the NaN amplitude reaches the recipe's finiteness check instead of an assert
    with pytest.raises(InputError, match=r"^COR_2_5 equality recipe at m=1.0, M=inf is not "
                                         r"finite: alpha=nan, beta=nan"):
        extremal_scenario("COR_2_5", {"m": 1.0, "M": math.inf})


def test_band_recipe_dividing_by_zero_is_an_input_error():
    # c0 * c0 underflows to 0, and so does R ** 4
    with pytest.raises(InputError, match=r"^COR_2_5 equality recipe at m=0.0, M=1e-170 "
                                         r"divides by zero$"):
        extremal_scenario("COR_2_5", {"m": 0.0, "M": 1e-170})


def _subparser(command: str):
    parser = build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices[command]


def _extremal_options() -> set[str]:
    return {s for a in _subparser("extremal")._actions for s in a.option_strings}


def _bound_choices(command: str) -> list[str]:
    return next(a for a in _subparser(command)._actions if a.dest == "bound").choices


def test_recipe_bounds_sweep_defaults_and_cli_flags_come_from_recipes():
    cones = {bound_id for bound_id in RECIPE_BOUNDS if recipe_of(bound_id).solve is not None}
    assert cones == {"THM_2_1", "COR_2_2", "COR_2_3", "COR_2_4", "COR_2_5", "MULT_B", "MULT_C"}
    assert set(RECIPE_BOUNDS) - cones == {"THM_3_1"}
    for bound_id in RECIPE_BOUNDS:
        recipe = recipe_of(bound_id)
        assert _base_params(bound_id, None) == recipe.defaults
        # a bound is swept when its recipe reads every key of its file entry: the cones
        assert _sweepable(bound_id) == (bound_id in cones) == (
            {q.key for q in BOUNDS[bound_id].params} <= set(recipe.defaults))
    flags = {f"--{key.replace('_', '-')}": type(value)
             for recipe in RECIPES.values() for key, value in recipe.defaults.items()}
    assert flags == {"--k": float, "--alpha": float, "--rho": float, "--m": float,
                     "--M": float, "--r": float, "--n-family": int, "--c": float}
    assert _extremal_options() - set(flags) == {
        "-h", "--help", "--bound", "--dim", "--field", "--interval", "--panels", "--out",
        "--scenario-out"}
    assert _bound_choices("extremal") == RECIPE_BOUNDS
    assert _bound_choices("sweep") == sorted(cones)
    # the flags take no argparse defaults: an absent flag is an absent key
    args = build_parser().parse_args(["extremal", "--bound", "THM_3_1", "--n-family", "3"])
    assert (args.n_family, args.c) == (3, None)


def test_generators_and_recipes_are_keyed_by_shape_and_reference_kind():
    pairs = {(spec.shape, spec.reference) for spec in BOUNDS.values()}
    assert len(pairs) == len(GENERATORS) == 15 and set(GENERATORS) == pairs
    assert len(RECIPES) == 6 and set(RECIPES) <= pairs
    # one recipe serves each bound of its pair: the ball cone COR_2_2 and MULT_B, the band
    # cone COR_2_3 and MULT_C
    assert len(RECIPE_BOUNDS) == 8
    assert recipe_of("MULT_B") is recipe_of("COR_2_2")
    assert recipe_of("MULT_C") is recipe_of("COR_2_3")
    assert recipe_of("PROP_4_1") is recipe_of("COR_3_2") is recipe_of("nope") is None
    # shapes compare by identity: a copy with the same fields keys nothing
    spec = BOUNDS["COR_2_2"]
    assert (spec.shape, spec.reference) in RECIPES
    assert (dataclasses.replace(spec.shape), spec.reference) not in RECIPES


@pytest.mark.parametrize("bound_id", RECIPE_BOUNDS)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_extremal_scenario_merges_its_parameters_once(bound_id, field, monkeypatch):
    calls = []
    merge = extremal._recipe_values

    def counting(*args):
        calls.append(args[0])
        return merge(*args)
    monkeypatch.setattr(extremal, "_recipe_values", counting)
    extremal_scenario(bound_id, recipe_of(bound_id).defaults, field=field)
    assert calls == [bound_id]


def test_thm21_alpha_defaults_to_the_recipe_default():
    default = {"k": 0.5, "alpha": recipe_of("THM_2_1").defaults["alpha"]}
    assert cone_recipe("THM_2_1", {"k": 0.5}) == cone_recipe("THM_2_1", default)
    assert scenario_to_dict(extremal_scenario("THM_2_1", {"k": 0.5})) == scenario_to_dict(
        extremal_scenario("THM_2_1", default))


# ---------------------------------------------------------------------------
# building and certifying the extremals


RECIPE_CASES = [
    ("THM_2_1", {"k": 0.5, "alpha": 1.0}),
    ("COR_2_2", {"rho": 0.6}),
    ("COR_2_3", {"m": 1.0, "M": 4.0}),
    ("COR_2_4", {"r": 0.5}),
    ("COR_2_5", {"m": 1.0, "M": 4.0}),
]


@pytest.mark.parametrize("bound_id,params", RECIPE_CASES)
def test_unit_extremal_certifies_equality(bound_id, params, unit_grid):
    _, _, expected_defect = cone_recipe(bound_id, params)
    e = basis_vector(REAL, 2, 0)
    f, bound_params = unit_extremal(bound_id, params, unit_grid)

    measured = defect(f)
    scale = max(abs(expected_defect), 1.0)
    assert abs(measured.value - expected_defect) <= 1e-10 * scale

    res = eval_unit_bound(f, e, bound_params, bound_id)
    assert res.verdict == HOLDS
    assert res.hypothesis.worst_violation <= 1e-12
    assert abs(res.lhs - res.rhs) <= 1e-9 * max(abs(res.rhs), 1.0)
    assert res.margin <= 1e-9 * max(abs(res.rhs), 1.0)

    # equality characterization: the integral is a nonnegative multiple of e
    F = bochner_integral(f).value
    cos_angle = inner(F, e).real / norm(F)
    assert inner(F, e).real > 0.0
    assert math.acos(min(cos_angle, 1.0)) <= 1e-9


@pytest.mark.parametrize("rho", [0.05, 0.3, 0.6, 0.9, 0.95])
def test_cor22_extremal_across_radii(rho, unit_grid):
    e = basis_vector(REAL, 2, 0)
    f, _ = unit_extremal("COR_2_2", {"rho": rho}, unit_grid)
    res = eval_unit_bound(f, e, BoundParams(rho=rho), "COR_2_2")
    assert abs(res.margin) <= 1e-9 * max(abs(res.rhs), 1.0)


def test_degenerate_band_recipe(unit_grid):
    alpha, beta, _ = cone_recipe("COR_2_3", {"m": 2.0, "M": 2.0})
    assert beta == 0.0
    e = basis_vector(REAL, 2, 0)
    u = basis_vector(REAL, 2, 1)
    f = materialize(FunctionSpec.cone(e, u, alpha, beta), unit_grid, REAL, 2)
    measured = defect(f)
    assert measured.value == pytest.approx(0.0, abs=1e-13)
    res = eval_unit_bound(f, e, BoundParams(m=2.0, M=2.0), "COR_2_3")
    assert res.rhs == pytest.approx(0.0, abs=1e-13)


def test_cor25_interior_maximum(unit_grid):
    # perturbing along the boundary circle strictly decreases the dominance gap
    m, M = 1.0, 4.0
    c0, R = 0.5 * (M + m), 0.5 * (M - m)
    alpha, _, _ = cone_recipe("COR_2_5", {"m": m, "M": M})
    phi_star = math.acos((alpha - c0) / R)

    def gap(phi):
        a = c0 + R * math.cos(phi)
        b = R * math.sin(phi)
        return math.hypot(a, b) - a

    center = gap(phi_star)
    assert gap(phi_star + 0.01) < center
    assert gap(phi_star - 0.01) < center


@pytest.mark.parametrize("bound_id,params", RECIPE_CASES)
def test_two_panel_recipe_file_holds(bound_id, params, tmp_path, capsys):
    path = tmp_path / "two-panels.json"
    save_scenario(extremal_scenario(bound_id, params, n_panels=2), path)
    assert main(["check", str(path)]) == 0
    assert " holds " in capsys.readouterr().out


def test_interval_scaling():
    _, _, expected_defect = cone_recipe("COR_2_3", {"m": 1.0, "M": 4.0}, interval=(-1.0, 3.0))
    assert expected_defect == pytest.approx(0.4 * 4.0)
    f, _ = unit_extremal("COR_2_3", {"m": 1.0, "M": 4.0}, Grid(-1.0, 3.0, 512))
    assert defect(f).value == pytest.approx(1.6, abs=1e-11)


# ---------------------------------------------------------------------------
# family extremal


def test_family_extremal_n1(unit_grid):
    c = ScalarProfile.constant(unit_grid, 1.0)
    f, family, profiles = family_extremal(1, c, unit_grid)
    assert np.all(profiles[0].values == 0.0)
    res = eval_family_bound(f, family, BoundParams(dominance_profiles=profiles), "THM_3_1")
    assert res.verdict == HOLDS
    assert abs(res.margin) <= 1e-12


def test_family_extremal_n2_constant(unit_grid):
    c = ScalarProfile.constant(unit_grid, 1.0)
    f, family, profiles = family_extremal(2, c, unit_grid)
    res = eval_family_bound(f, family, BoundParams(dominance_profiles=profiles), "THM_3_1")
    assert res.lhs == pytest.approx(1.0, rel=1e-13)
    assert res.rhs == pytest.approx(1.0, rel=1e-13)
    assert abs(res.margin) <= 1e-10


def test_family_extremal_n4_linear(unit_grid):
    c = profile_of({"linear": [1.0, 2.0]}, unit_grid)
    f, family, profiles = family_extremal(4, c, unit_grid)
    res = eval_family_bound(f, family, BoundParams(dominance_profiles=profiles), "THM_3_1")
    assert res.lhs == pytest.approx(1.5, rel=1e-12)
    assert res.rhs == pytest.approx(1.5, rel=1e-12)
    assert abs(res.margin) <= 1e-10 * 1.5
    # hypothesis met with equality at every node and every index
    assert res.hypothesis.worst_violation <= 1e-12



def test_family_extremal_rejects_a_profile_on_another_grid():
    c = ScalarProfile.constant(Grid(0.0, 2.0, 512), 1.0)
    with pytest.raises(InputError, match="^amplitude profile lives on a different grid$"):
        extremal_scenario("THM_3_1", {"c": c})


def test_family_extremal_defaults_and_n_family_below_one():
    scenario = extremal_scenario("THM_3_1", {})
    assert (scenario.id, scenario.d, scenario.reference.family.n) == ("extremal-family-n2", 2, 2)
    assert extremal_scenario("THM_3_1", {"n_family": 3}).d == 3
    with pytest.raises(InputError, match="^n_family must be at least 1$"):
        extremal_scenario("THM_3_1", {"n_family": 0})


def test_canned_family_extremal_run_does_not_validate_its_family_again(monkeypatch):
    calls = []
    check = gridfn.check_orthonormal
    monkeypatch.setattr(gridfn, "check_orthonormal",
                        lambda *args: calls.append(args) or check(*args))
    scenario = extremal_scenario("THM_3_1", {"n_family": 3, "c": 0.75}, n_panels=64)
    assert scenario.function.params["family"] is scenario.reference.family
    assert run(scenario).rollup == "holds"
    assert calls == []
    # a family validated at a looser tolerance than the scenario's is checked again
    family = scenario.reference.family
    loose = FunctionSpec.family_symmetric(OrthonormalFamily(family.members, 1e-3), 0.75)
    materialize(loose, scenario.grid, REAL, 3, ortho_tol=1e-9)
    assert len(calls) == 1


UNREAD = [
    (["--bound", "COR_2_2", "--rho", "0.6", "--m", "3", "--c", "5", "--n-family", "4"],
     "COR_2_2 equality recipe reads rho, not m, n_family, c"),
    (["--bound", "THM_3_1", "--rho", "0.6", "--k", "9"],
     "THM_3_1 equality recipe reads n_family, c, not k, rho"),
]


@pytest.mark.parametrize("argv, message", UNREAD, ids=["cone", "family"])
def test_recipe_flags_the_bound_does_not_read_exit_3(argv, message, capsys):
    assert main(["extremal", *argv]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_extremal_scenario_names_the_keys_it_does_not_read():
    with pytest.raises(InputError, match="^COR_2_3 equality recipe reads m, M, not rho, k$"):
        extremal_scenario("COR_2_3", {"m": 1.0, "M": 4.0, "rho": 0.5, "k": 1.0})
    with pytest.raises(InputError, match="^THM_3_1 equality recipe reads n_family, c, not r$"):
        extremal_scenario("THM_3_1", {"r": 0.5})


@pytest.mark.parametrize("bound_id", sorted(filter(_sweepable, BOUNDS)))
def test_sweep_passes_every_recipe_default_with_the_swept_value(bound_id):
    # sweep builds each step from {**defaults, param: value}: every key is one the recipe reads
    for q in BOUNDS[bound_id].params:
        value = recipe_of(bound_id).defaults[q.key]
        rows, warnings = sweep(bound_id, q.key, value, value, 1)
        assert warnings == []
        assert [row.verdict for row in rows] == [HOLDS]


@pytest.mark.parametrize("argv", [["--bound", "COR_2_2", "--rho", "0.6"], ["--bound", "THM_3_1"]],
                         ids=["cone", "family"])
def test_extremal_on_an_infinite_interval_exits_3(argv, tmp_path, capsys):
    assert main(["extremal", *argv, "--interval", "0", "inf"]) == 3
    assert capsys.readouterr().err == "error: interval must be finite, got [0.0, inf]\n"
    # a scenario file is rejected at the endpoint, before it reaches the grid
    data = scenario_to_dict(extremal_scenario("COR_2_2", {"rho": 0.6}, n_panels=2))
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(dict(data, interval=[0.0, math.inf])), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == "error: infinite.json.interval[1]: must be finite, got inf\n"
