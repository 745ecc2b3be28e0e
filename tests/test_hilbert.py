from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtri import (
    COMPLEX,
    REAL,
    DegeneracyError,
    HVector,
    InfeasibilityError,
    InputError,
    OrthonormalityError,
    basis_vector,
    check_orthonormal,
    gram_report,
    inner,
    norm,
    orthonormalize,
)
from .conftest import random_vector


def test_inner_identity_second_slot():
    x = HVector(COMPLEX, [1 + 1j, 0])
    y = HVector(COMPLEX, [1, 0])
    assert inner(x, y) == 1 + 1j


def test_inner_unit_self_product():
    x = HVector(REAL, [3 / 5, 4 / 5])
    assert inner(x, x) == pytest.approx(1.0, abs=1e-15)


def test_inner_conjugate_linear_in_second():
    x = HVector(COMPLEX, [2, 1j])
    y = HVector(COMPLEX, [1j, 3])
    assert inner(x, y) == pytest.approx(np.conj(inner(y, x)))
    scaled = HVector(COMPLEX, y.coords * (2 - 1j))
    assert inner(x, scaled) == pytest.approx(inner(x, y) * np.conj(2 - 1j))


def test_inner_mismatch_errors():
    with pytest.raises(InputError):
        inner(HVector(REAL, [1, 0]), HVector(REAL, [1, 0, 0]))
    with pytest.raises(InputError):
        inner(HVector(REAL, [1, 0]), HVector(COMPLEX, [1, 0]))


def test_norm_examples():
    assert norm(HVector(REAL, [0, 0, 0])) == 0.0
    assert norm(HVector(REAL, [3, 4])) == 5.0
    # |1+i|^2 + |1-i|^2 = 4
    assert norm(HVector(COMPLEX, [1 + 1j, 1 - 1j])) == pytest.approx(2.0, abs=1e-15)


def test_cauchy_schwarz_random_pairs(rng):
    # direct check over 10^4 random complex pairs
    for _ in range(10_000):
        x = random_vector(rng, COMPLEX, 4)
        y = random_vector(rng, COMPLEX, 4)
        scale = norm(x) * norm(y)
        assert abs(inner(x, y)) <= scale + 1e-12 * max(scale, 1.0)


def test_norm_consistent_with_inner(rng):
    for _ in range(100):
        x = random_vector(rng, COMPLEX, 6)
        product = inner(x, x)
        assert product.imag == 0.0
        assert norm(x) == pytest.approx(math.sqrt(product.real), rel=1e-14)


@given(coords=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
       lam=st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_schwarz_equality_direction(coords, lam):
    # x = lam * y with lam >= 0 makes Re<x, y> = ||x|| ||y||
    y = HVector(REAL, np.asarray(coords, dtype=float))
    x = HVector(REAL, lam * y.coords)
    scale = max(norm(x) * norm(y), 1.0)
    assert abs(inner(x, y).real - norm(x) * norm(y)) <= 1e-12 * scale


@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=6),
       st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_real_field_closure(a, b):
    d = min(len(a), len(b))
    x = HVector(REAL, np.asarray(a[:d]))
    y = HVector(REAL, np.asarray(b[:d]))
    assert inner(x, y).imag == 0.0
    assert inner(HVector(REAL, x.coords + y.coords), x).imag == 0.0


def test_check_orthonormal_standard_basis():
    family = check_orthonormal([basis_vector(REAL, 3, i) for i in range(3)], tol=1e-12)
    assert family.n == 3
    assert norm(family.sum_vector()) == pytest.approx(math.sqrt(3), abs=3e-12)


def test_check_orthonormal_repeated_vector():
    v = HVector(REAL, [1, 0])
    with pytest.raises(OrthonormalityError) as exc:
        check_orthonormal([v, v], tol=1e-12)
    report = exc.value.report
    assert report.worst_pair in ((0, 1), (1, 0))
    assert report.worst_residual == pytest.approx(1.0)


def test_check_orthonormal_rotation():
    theta = 0.7
    family = check_orthonormal([
        HVector(REAL, [math.cos(theta), math.sin(theta)]),
        HVector(REAL, [-math.sin(theta), math.cos(theta)]),
    ], tol=1e-12)
    gram = family.matrix() @ family.matrix().T
    assert np.max(np.abs(gram - np.eye(2))) < 1e-15


def test_check_orthonormal_infeasible():
    with pytest.raises(InfeasibilityError):
        check_orthonormal([basis_vector(REAL, 2, 0), basis_vector(REAL, 2, 1),
                           HVector(REAL, [1 / math.sqrt(2), 1 / math.sqrt(2)])])


def test_orthonormalize_idempotent():
    base = [basis_vector(REAL, 3, i) for i in range(3)]
    out = orthonormalize(base)
    for got, want in zip(out.members, base):
        assert np.max(np.abs(got.coords - want.coords)) < 1e-12


def test_orthonormalize_projection_step():
    out = orthonormalize([HVector(REAL, [1, 0]), HVector(REAL, [1, 1])])
    assert np.allclose(out.members[0].coords, [1, 0], atol=1e-15)
    assert np.allclose(out.members[1].coords, [0, 1], atol=1e-15)


def test_orthonormalize_random_complex(rng):
    members = [random_vector(rng, COMPLEX, 6) for _ in range(4)]
    out = orthonormalize(members)
    gram = out.matrix() @ np.conj(out.matrix().T)
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-10


def test_orthonormalize_rank_deficient():
    with pytest.raises(DegeneracyError):
        orthonormalize([HVector(REAL, [1, 0]), HVector(REAL, [2, 0])])


def test_gram_report_flags_sum_norm():
    report = gram_report([basis_vector(REAL, 4, i) for i in range(4)])
    assert report.ok
    assert report.sum_norm_gap < 1e-12


def test_family_sum_norm_identity(rng):
    # || sum e_i ||^2 == n for validated families
    members = [random_vector(rng, COMPLEX, 8) for _ in range(5)]
    family = orthonormalize(members)
    assert norm(family.sum_vector()) == pytest.approx(math.sqrt(5), abs=5 * 1e-10)
