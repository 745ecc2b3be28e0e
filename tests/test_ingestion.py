"""Scenario ingestion: node-sample rows parsed as one array, the row walk kept only to
locate errors, strict numbers in profile specs, integers beyond the float range, one
materialization per scenario and overflow-free integral norms."""

from __future__ import annotations

import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtri import ScenarioError, run
from revtri import scenario as S
from revtri.cli import main
from revtri.extremal import extremal_scenario
from revtri.fuzz import generate_scenario
from revtri.gridfn import FunctionSpec, number_array
from revtri.hilbert import COMPLEX, REAL
from revtri.quadrature import _norm, defect
from revtri.scenario import (
    _parse_coords,
    _walk_row,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)

DATA = Path(__file__).parent / "data"
N_PANELS = 4


# --------------------------------------------------------------------------
# the array path against the row walk

def _walk(field: str, rows, d: int) -> np.ndarray:
    return np.stack([_walk_row(field, row, d, f"p[{j}]") for j, row in enumerate(rows)])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: finite JSON numbers, with the edges of the float range spelled out
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.integers(-2**80, 2**80),
    st.sampled_from([0, 2**53 + 1, -2**63, 2**64 + 1, 10**308]),
)


def _rows(entry):
    """A list of 1-6 rows of 1-4 entries, each row a list or a tuple."""
    return st.integers(1, 4).flatmap(lambda d: st.lists(
        st.one_of(st.lists(entry, min_size=d, max_size=d),
                  st.tuples(*[entry] * d)), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(rows=_rows(_numbers))
def test_array_path_matches_row_walk_real(rows):
    d = len(rows[0])
    fast = _parse_coords(REAL, rows, (len(rows), d), "p")
    assert _same_bits(fast, _walk(REAL, rows, d))
    assert _same_bits(_parse_coords(REAL, rows[0], (d,), "p"), _walk_row(REAL, rows[0], d, "p"))


@settings(max_examples=300, deadline=None)
@given(rows=_rows(st.one_of(st.lists(_numbers, min_size=2, max_size=2),
                            st.tuples(_numbers, _numbers))))
def test_array_path_matches_row_walk_complex(rows):
    d = len(rows[0])
    fast = _parse_coords(COMPLEX, rows, (len(rows), d), "p")
    assert _same_bits(fast, _walk(COMPLEX, rows, d))
    assert _same_bits(_parse_coords(COMPLEX, rows[0], (d,), "p"),
                      _walk_row(COMPLEX, rows[0], d, "p"))


def test_signed_zeros_survive():
    values = _parse_coords(COMPLEX, [[[-0.0, -0.0], [0.0, -0.0]]], (1, 2), "p")
    assert np.signbit(values.real).tolist() == [[True, False]]
    assert np.signbit(values.imag).tolist() == [[True, True]]


# --------------------------------------------------------------------------
# serialization: one tolist() per array writes what one complex(v) per number wrote

def _one_number_at_a_time(field: str, coords) -> list:
    """The coordinates through ``complex(v)`` one at a time (the reference)."""
    arr = np.asarray(coords)
    if arr.ndim > 1:
        return [_one_number_at_a_time(field, row) for row in arr]
    return [complex(v).real if field == REAL else [complex(v).real, complex(v).imag]
            for v in arr]


_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from([REAL, COMPLEX]), complex_values=st.booleans(),
       shape=st.one_of(st.tuples(st.integers(1, 6)),
                       st.tuples(st.integers(1, 6), st.integers(1, 4))))
def test_coords_serialize_like_one_number_at_a_time(data, field, complex_values, shape):
    size = int(np.prod(shape))
    flat = np.array(data.draw(st.lists(_finite, min_size=2 * size, max_size=2 * size)))
    # pairs taken as complex128 by a view, so a signed zero imaginary part survives
    values = flat.view(np.complex128).reshape(shape) if complex_values \
        else flat[:size].reshape(shape)
    got = S._coords_to_json(field, values).tolist()
    want = _one_number_at_a_time(field, values)
    assert json.dumps(got) == json.dumps(want)
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)


def test_coords_serialize_ints_as_floats():
    rows = np.array([[1, -2], [2**53 + 1, 0]])
    for field in (REAL, COMPLEX):
        assert json.dumps(S._coords_to_json(field, rows).tolist()) == \
            json.dumps(_one_number_at_a_time(field, rows))


@pytest.mark.parametrize("data, shape", [
    ([True, 1.0], (2,)), (["1.5", 1.0], (2,)), ([None, 1.0], (2,)), ([1.0], (2,)),
    ([[1.0, 2.0], [1.0]], (2, 2)), ([range(2)], (1, 2)), ([np.float64(1.0)], (1,)),
    ([10**400], (1,)), ("1.5", ()), (True, ()),
])
def test_number_array_refuses_what_numpy_would_convert(data, shape):
    assert number_array(data, shape) is None


# --------------------------------------------------------------------------
# malformed samples: the error path and message are those of the row walk

def _samples_scenario(field: str, rows) -> dict:
    e = [1.0, 0.0] if field == REAL else [[1.0, 0.0], [0.0, 0.0]]
    return {"id": "ingest", "field": field, "d": 2, "interval": [0.0, 1.0], "N": N_PANELS,
            "function": {"variant": "samples", "values": rows}, "reference": {"e": e},
            "bounds": [{"bound_id": "COR_2_2", "params": {"rho": 0.5}}], "tolerances": {}}


def _real_rows():
    return [[1.0, 0.1] for _ in range(N_PANELS + 1)]


def _complex_rows():
    return [[[1.0, 0.0], [0.1, -0.0]] for _ in range(N_PANELS + 1)]


def _set(rows, index, value):
    *head, last = index
    target = rows
    for i in head:
        target = target[i]
    target[last] = value
    return rows


V = "scenario.function.values"

#: case -> (field, rows, path, message); path None: the rows are accepted
MALFORMED = {
    "real-bool": (REAL, _set(_real_rows(), (2, 1), True),
                  f"{V}[2][1]", "expected a number, got True"),
    "real-str": (REAL, _set(_real_rows(), (2, 1), "1.5"),
                 f"{V}[2][1]", "expected a number, got '1.5'"),
    "real-none": (REAL, _set(_real_rows(), (2, 0), None),
                  f"{V}[2][0]", "expected a number, got None"),
    "real-ragged": (REAL, _set(_real_rows(), (3,), [1.0]),
                    f"{V}[3]", "expected 2 coordinates, got 1"),
    "real-wrong-d": (REAL, [row + [0.0] for row in _real_rows()],
                     f"{V}[0]", "expected 2 coordinates, got 3"),
    "real-nested": (REAL, _set(_real_rows(), (1, 1), [0.1]),
                    f"{V}[1][1]", "expected a number, got [0.1]"),
    "real-row-not-list": (REAL, _set(_real_rows(), (1,), 1.0),
                          f"{V}[1]", "expected a coordinate list, got 1.0"),
    "real-nan": (REAL, _set(_real_rows(), (2, 1), float("nan")), V, "values must be finite"),
    "real-np-float64": (REAL, _set(_real_rows(), (2, 1), np.float64(0.25)), None, None),
    "complex-bool": (COMPLEX, _set(_complex_rows(), (2, 1, 0), True),
                     f"{V}[2][1][0]", "expected a number, got True"),
    "complex-str": (COMPLEX, _set(_complex_rows(), (2, 1, 1), "x"),
                    f"{V}[2][1][1]", "expected a number, got 'x'"),
    "complex-none": (COMPLEX, _set(_complex_rows(), (2, 0, 1), None),
                     f"{V}[2][0][1]", "expected a number, got None"),
    "complex-not-pair": (COMPLEX, _set(_complex_rows(), (2, 1), 0.5), f"{V}[2][1]",
                         "complex coordinate must be an [re, im] pair, got 0.5"),
    "complex-triple": (COMPLEX, _set(_complex_rows(), (2, 1), [0.5, 0.0, 0.0]), f"{V}[2][1]",
                       "complex coordinate must be an [re, im] pair, got [0.5, 0.0, 0.0]"),
    "complex-nested": (COMPLEX, _set(_complex_rows(), (2, 1, 1), [0.0]),
                       f"{V}[2][1][1]", "expected a number, got [0.0]"),
    "complex-ragged": (COMPLEX, _set(_complex_rows(), (3,), [[1.0, 0.0]]),
                       f"{V}[3]", "expected 2 coordinates, got 1"),
    "complex-np-float64": (COMPLEX, _set(_complex_rows(), (2, 1, 1), np.float64(0.25)),
                           None, None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_samples_keep_path_and_message(case):
    field, rows, path, message = MALFORMED[case]
    data = _samples_scenario(field, rows)
    if path is None:
        values = scenario_from_dict(data).function.params["values"]
        assert values[2, 1] == (0.25 if field == REAL else 0.1 + 0.25j)
        return
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert (exc.value.path, exc.value.reason) == (path, message)


@pytest.mark.parametrize("value, path, message", [
    ([1.0, True], "scenario.reference.e[1]", "expected a number, got True"),
    ([1.0, "0"], "scenario.reference.e[1]", "expected a number, got '0'"),
    ([1.0], "scenario.reference.e", "expected 2 coordinates, got 1"),
    ("e", "scenario.reference.e", "expected a coordinate list, got 'e'"),
])
def test_malformed_vector_keeps_path_and_message(value, path, message):
    data = _samples_scenario(REAL, _real_rows())
    data["reference"]["e"] = value
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert (exc.value.path, exc.value.reason) == (path, message)


# --------------------------------------------------------------------------
# a valid file never walks its rows

@pytest.mark.parametrize("bound_id, kwargs", [("COR_2_2", {}),
                                               ("PROP_4_1", {"field": COMPLEX, "d": 1})])
def test_valid_samples_file_skips_row_walk(bound_id, kwargs, tmp_path, monkeypatch):
    path = tmp_path / "samples.json"
    save_scenario(generate_scenario(bound_id, 11, 0, n_panels=8192, **kwargs), path)
    calls = []

    def counting(name):
        original = getattr(S, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("_walk_row", "_parse_scalar_entry"):
        monkeypatch.setattr(S, name, counting(name))
    scenario = load_scenario(path)
    assert scenario.function.params["values"].shape == (8193, scenario.d)
    assert calls == []

    data = json.loads(path.read_text(encoding="utf-8"))
    data["function"]["values"][5][0] = True
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)
    assert calls.count("_walk_row") == 6  # the walk stops at the row it reports


# --------------------------------------------------------------------------
# profile specs take numbers only

def _profile_scenario(k) -> dict:
    return {"id": "profile", "field": REAL, "d": 2, "interval": [0.0, 1.0], "N": N_PANELS,
            "function": {"variant": "cone", "e": [1.0, 0.0], "u": [0.0, 1.0],
                         "alpha": 1.0, "beta": 0.3},
            "reference": {"e": [1.0, 0.0]},
            "bounds": [{"bound_id": "THM_2_1", "params": {"k": k}}], "tolerances": {}}


K = "scenario.bounds[0].params.k"
SAMPLES = [0.1] * (N_PANELS + 1)

BAD_PROFILES = {
    "samples-str": ({"samples": SAMPLES[:3] + ["1.5"] + SAMPLES[4:]},
                    "samples profile entry 3 must be a number, got '1.5'"),
    "samples-bool": ({"samples": SAMPLES[:2] + [True] + SAMPLES[3:]},
                     "samples profile entry 2 must be a number, got True"),
    "samples-length": ({"samples": SAMPLES[:2]}, "samples profile needs a list of 5 numbers"),
    "constant-str": ({"constant": "2.0"}, "constant profile must be a number, got '2.0'"),
    "constant-bool": ({"constant": True}, "constant profile must be a number, got True"),
    "constant-list": ({"constant": [0.1]}, "constant profile must be a number, got [0.1]"),
    "linear-str": ({"linear": ["2.0", "3"]}, "linear profile entry 0 must be a number, got '2.0'"),
    "linear-length": ({"linear": [0.1, 0.2, 0.3]}, "linear profile needs a list of 2 numbers"),
    "sinusoid-bool": ({"sinusoid": [0.2, 0.1, False]},
                      "sinusoid profile entry 2 must be a number, got False"),
    "sinusoid-none": ({"sinusoid": None}, "sinusoid profile needs a list of 3 numbers"),
}


@pytest.mark.parametrize("case", sorted(BAD_PROFILES))
def test_profile_takes_numbers_only(case, tmp_path, capsys):
    spec, message = BAD_PROFILES[case]
    data = _profile_scenario(spec)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(data)
    assert (exc.value.path, exc.value.reason) == (K, message)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert K.removeprefix("scenario") in capsys.readouterr().err


def test_negative_profile_error_prints_a_plain_float(tmp_path, capsys):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(_profile_scenario({"linear": [1.0, -1.0]})), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"error: {path.name}.bounds[0].params.k: profile is negative at node {N_PANELS}: -1.0\n")


def test_profile_numbers_unchanged():
    for spec in (0.1, {"constant": 1}, {"linear": [0.1, 0.3]}, {"sinusoid": [0.2, 0.1, 3]},
                 {"samples": SAMPLES}, {"samples": tuple(np.float64(v) for v in SAMPLES)}):
        assert run(scenario_from_dict(_profile_scenario(spec))).rollup == "holds"


# --------------------------------------------------------------------------
# integers beyond the float range are input errors

HUGE = 10**400


@pytest.mark.parametrize("mutate, path, message", [
    (lambda d: _set(d["function"]["values"], (2, 1), HUGE), f"{V}[2][1]",
     "must be finite, got an integer beyond the float range"),
    (lambda d: d["bounds"][0]["params"].update(rho=HUGE), "scenario.bounds[0].params.rho",
     "must be finite, got an integer beyond the float range"),
    (lambda d: d["reference"].update(e=[HUGE, 0]), "scenario.reference.e[0]",
     "must be finite, got an integer beyond the float range"),
])
def test_huge_integer_is_an_input_error(mutate, path, message, tmp_path, capsys):
    data = _samples_scenario(REAL, _real_rows())
    mutate(data)
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(copy.deepcopy(data))
    assert (exc.value.path, exc.value.reason) == (path, message)
    file = tmp_path / "huge.json"
    file.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(file)]) == 3
    assert path.removeprefix("scenario") in capsys.readouterr().err


def test_huge_integer_in_profile_is_an_input_error(tmp_path, capsys):
    file = tmp_path / "huge.json"
    file.write_text(json.dumps(_profile_scenario({"constant": HUGE})), encoding="utf-8")
    assert main(["check", str(file)]) == 3
    err = capsys.readouterr().err
    assert f"{K.removeprefix('scenario')}: constant profile values must be finite" in err


def test_integer_over_the_digit_limit_is_invalid_json(tmp_path, capsys):
    text = json.dumps(_samples_scenario(REAL, _real_rows())).replace('"rho": 0.5',
                                                                     '"rho": ' + "9" * 5000)
    file = tmp_path / "digits.json"
    file.write_text(text, encoding="utf-8")
    assert main(["check", str(file)]) == 3
    assert "invalid JSON" in capsys.readouterr().err


# --------------------------------------------------------------------------
# f is materialized once per scenario

def _count_materialize(monkeypatch) -> list:
    calls = []
    original = S.materialize

    def counting(*args):
        calls.append(args[0].variant)
        return original(*args)
    monkeypatch.setattr(S, "materialize", counting)
    return calls


def test_check_materializes_once(monkeypatch):
    calls = _count_materialize(monkeypatch)
    scenario = load_scenario(DATA / "cor23_extremal.json")
    report = run(scenario)
    assert calls == ["cone"]
    assert report.rollup == "holds"
    assert scenario.f is scenario.f


def test_hand_built_scenarios_materialize_in_run(monkeypatch):
    calls = _count_materialize(monkeypatch)
    scenario = extremal_scenario("COR_2_3", {"m": 1.0, "M": 4.0})
    assert calls == []
    assert run(scenario).rollup == "holds"
    assert calls == ["cone"]
    # a changed function is materialized anew
    scaled = dataclasses.replace(scenario, function=FunctionSpec.samples(2.0 * scenario.f.values))
    assert np.array_equal(scaled.f.values, 2.0 * scenario.f.values)
    assert calls == ["cone", "samples"]


# --------------------------------------------------------------------------
# integral norms do not overflow

def test_defect_of_huge_interval_is_finite():
    data = json.loads((DATA / "cor23_extremal.json").read_text(encoding="utf-8"))
    data["interval"] = [0.0, 2e306]
    f = scenario_from_dict(data).f
    with np.errstate(over="raise"):
        est = defect(f)
    assert est.norm_integral == pytest.approx(4e306)
    assert est.integral_norm == pytest.approx(3.2e306)
    assert all(np.isfinite([est.value, est.err_est, est.integral_err, est.norm_integral_err]))


#: entries whose squares, and those of the vector scaled by 2**±900, stay normal
_moderate = st.floats(-1e20, 1e20).filter(lambda x: x == 0.0 or abs(x) > 1e-20)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(_moderate, _moderate), min_size=1, max_size=40),
       complex_=st.booleans(), exponent=st.integers(-900, 900))
def test_scaled_norm_is_exact(parts, complex_, exponent):
    re, im = np.array(parts).T
    x = re + 1j * im if complex_ else re
    scaled = np.ldexp(re, exponent) + 1j * np.ldexp(im, exponent) if complex_ \
        else np.ldexp(re, exponent)
    # scaling by a power of two commutes with the norm in the normal range
    assert _norm(x) == np.linalg.norm(x)
    assert _norm(scaled) == np.ldexp(np.linalg.norm(x), exponent)


def test_scaled_norm_edges():
    with np.errstate(over="raise"):
        assert _norm(np.array([1e308, 1e308])) == pytest.approx(np.sqrt(2) * 1e308)
        assert _norm(np.array([1e308 + 1e308j])) == pytest.approx(np.sqrt(2) * 1e308)
    assert _norm(np.zeros(3)) == 0.0
    assert _norm(np.array([5e-324, 0.0])) == 5e-324
    assert _norm(np.float64(-3.0)) == 3.0
