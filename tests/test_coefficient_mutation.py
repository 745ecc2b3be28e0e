"""A right-hand-side constant off by 1e-9 is caught on every bound's equality case.

Each bound whose (hypothesis shape, reference kind) has a recipe is evaluated on its
recipe's default equality case at N = 512, real and complex, with its constant scaled by
1 - 1e-9 in the direction that makes the inequality stronger (the verdict must be
``violated``) and by 1 + 1e-9 in the other (the margin must exceed the budget, so a loose
constant shows too): 8 bounds x 2 fields x 2 directions = 32 mutants.  The constant is
the shape's integrand scale, coefficient or factor, patched through ``patch_shape``;
MULT_C's coefficient is inline in its right-hand-side form, which is wrapped instead.
"""

from __future__ import annotations

import dataclasses

import pytest

from revtri import COMPLEX, HOLDS, REAL, VIOLATED, extremal_scenario, run
from revtri import bounds as B
from revtri.extremal import recipe_of

from .conftest import patch_shape
from .test_extremal import RECIPE_BOUNDS

EPS = 1e-9


def _mutate(monkeypatch, bound_id: str, scale: float) -> str:
    """Scale the constant of ``bound_id``'s right-hand side by ``scale``; return what was
    patched."""
    spec = B.BOUNDS[bound_id]
    shape = spec.shape
    name = next(key for key, value in vars(B).items() if value is shape)
    if spec.rhs is B._integral:
        patch_shape(monkeypatch, name, scale=shape.scale * scale)
        return "scale"
    if spec.rhs is B._projection:
        patch_shape(monkeypatch, name, coefficient=lambda *v: shape.coefficient(*v) * scale)
        return "coefficient"
    if spec.rhs is B._ratio:
        # factor * int ||f|| <= ||int f||: the right-hand side's constant is 1 / factor
        patch_shape(monkeypatch, name, factor=lambda *v: shape.factor(*v) / scale)
        return "factor"
    form = spec.rhs

    def scaled(*args):
        lhs, rhs, *rest = form(*args)
        return (lhs, rhs * scale, *rest)
    monkeypatch.setitem(B.BOUNDS, bound_id, dataclasses.replace(spec, rhs=scaled))
    return "form"


def _result(bound_id: str, field: str):
    scenario = extremal_scenario(bound_id, recipe_of(bound_id).defaults, field=field,
                                 n_panels=512)
    [result] = run(scenario).results
    return result


def test_every_recipe_bound_has_a_patched_constant(monkeypatch):
    assert len(RECIPE_BOUNDS) == 8
    patched = {}
    for bound_id in RECIPE_BOUNDS:
        with monkeypatch.context() as m:
            patched[bound_id] = _mutate(m, bound_id, 1.0)
    assert [b for b, how in patched.items() if how == "form"] == ["MULT_C"]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("bound_id", RECIPE_BOUNDS)
def test_a_constant_off_by_1e_9_is_caught(bound_id, field, monkeypatch):
    exact = _result(bound_id, field)
    assert exact.verdict == HOLDS and abs(exact.margin) <= exact.err_budget
    with monkeypatch.context() as m:
        _mutate(m, bound_id, 1.0 - EPS)
        stronger = _result(bound_id, field)
    with monkeypatch.context() as m:
        _mutate(m, bound_id, 1.0 + EPS)
        weaker = _result(bound_id, field)
    assert stronger.verdict == VIOLATED, stronger
    assert weaker.verdict == HOLDS and weaker.margin > weaker.err_budget, weaker
