from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from revtri import COMPLEX, Grid, HVector, extremal_scenario
from revtri import bounds as B
from revtri.extremal import RECIPES, recipe_of
from revtri.fuzz import GENERATORS


@pytest.fixture
def rng():
    return np.random.default_rng(20240416)


@pytest.fixture
def unit_grid():
    return Grid(0.0, 1.0, 512)


def unit_extremal(bound_id: str, params: dict, grid: Grid):
    """(f, bound params) of ``bound_id``'s equality recipe on ``grid``: the real cone on
    the first two basis vectors e and u of R^2, as :func:`extremal_scenario` builds it."""
    scenario = extremal_scenario(bound_id, params, interval=(grid.a, grid.b),
                                 n_panels=grid.n_panels)
    return scenario.f, scenario.bounds[0].params


def cone_recipe(bound_id: str, params: dict, interval: tuple = (0.0, 1.0)) -> tuple:
    """(alpha, beta, expected defect) of ``bound_id``'s equality cone: alpha and beta as
    :func:`extremal_scenario` puts them in the cone spec, the defect from the row's closed
    form over the parameters merged with its defaults, times the interval's length."""
    spec = extremal_scenario(bound_id, params, interval=interval).function.params
    recipe = recipe_of(bound_id)
    rate = recipe.solve(**{**recipe.defaults, **params})[2]
    return spec["alpha"], spec["beta"], rate * (interval[1] - interval[0])


def family_extremal(n: int, c, grid: Grid):
    """(f, family, tight dominance profiles) of the symmetric family extremal of the first
    n basis vectors of R^max(n, 2) on ``grid``, as :func:`extremal_scenario` builds THM_3_1's."""
    scenario = extremal_scenario("THM_3_1", {"n_family": n, "c": c},
                                 interval=(grid.a, grid.b), n_panels=grid.n_panels)
    return scenario.f, scenario.reference.family, scenario.bounds[0].params.dominance_profiles


def random_vector(rng, field: str, d: int) -> HVector:
    v = rng.standard_normal(d)
    if field == COMPLEX:
        v = v + 1j * rng.standard_normal(d)
    return HVector(field, v)


def random_unit(rng, field: str, d: int) -> HVector:
    v = random_vector(rng, field, d)
    return HVector(field, v.coords / np.linalg.norm(v.coords))


def table_key(bound_id: str) -> tuple:
    """The (hypothesis shape, reference kind) that keys ``bound_id``'s fuzz generator and
    equality recipe."""
    spec = B.BOUNDS[bound_id]
    return spec.shape, spec.reference


def patch_shape(monkeypatch, name: str, **changes) -> None:
    """Replace the hypothesis shape ``bounds.<name>`` by a copy with ``changes``, in the
    module, whose checkers read it, in every ``BOUNDS`` row that has it, and in the keys of
    ``fuzz.GENERATORS`` and ``extremal.RECIPES``, so its bounds keep their generators and
    recipes."""
    old = getattr(B, name)
    new = dataclasses.replace(old, **changes)
    monkeypatch.setattr(B, name, new)
    for bound_id, spec in B.BOUNDS.items():
        if spec.shape is old:
            monkeypatch.setitem(B.BOUNDS, bound_id, dataclasses.replace(spec, shape=new))
    for table in (GENERATORS, RECIPES):
        for shape, kind in [key for key in table if key[0] is old]:
            monkeypatch.setitem(table, (new, kind), table[shape, kind])
            monkeypatch.delitem(table, (shape, kind))
