"""The streaming JSON writer behind ``save_scenario`` and ``revtri fuzz --out``.

Every file it writes is byte for byte ``json.dumps(data, sort_keys=True, indent=2)
+ "\\n"`` of the same data with its arrays as lists: the generated scenarios of every
bound across node blocks, the ``extremal --scenario-out`` files, fuzz summaries with
dumped counterexamples, and random trees with arrays of 1 to 3 axes.  Streaming keeps
the writer's memory to one node block instead of the whole text."""

from __future__ import annotations

import ast
import json
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import revtri
from revtri import scenario as scenario_module
from revtri.bounds import ALL_BOUND_IDS
from revtri.cli import main
from revtri.extremal import extremal_scenario
from revtri.fuzz import FuzzSummary, generate_scenario
from revtri.hilbert import COMPLEX, REAL
from revtri.scenario import (
    _plain,
    _scenario_tree,
    _write_json,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

DATA = Path(__file__).parent / "data"
SRC = Path(revtri.__file__).resolve().parent


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _assert_written(path: Path, want: str) -> None:
    """The file at ``path`` holds ``want``; a mismatch is shown at its first offset,
    since a diff of two texts of megabytes takes pytest minutes."""
    got = path.read_text(encoding="utf-8")
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"{path.name} differs at offset {at} of {len(want)}: "
                    f"{got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


# --------------------------------------------------------------------------
# scenarios

@pytest.mark.parametrize("bound_id", sorted(ALL_BOUND_IDS))
def test_every_generated_scenario_is_written_as_json_dumps_writes_it(bound_id, tmp_path):
    # 513 nodes are one partial node block; 4099 and 8193 end in a partial block of 3
    # and of 1 node (an odd panel count is not a grid)
    written = set()
    for n_panels in (512, 4098, 8192):
        for field in (REAL, COMPLEX):
            scenario = generate_scenario(bound_id, 13, 0, field=field, n_panels=n_panels)
            if (scenario.field, n_panels) in written:  # a bound with one field only
                continue
            written.add((scenario.field, n_panels))
            path = tmp_path / f"{scenario.field}-{n_panels}.json"
            save_scenario(scenario, path)
            _assert_written(path, _dumps(scenario_to_dict(scenario)))


@pytest.mark.parametrize("name", ["cor23_extremal.json", "cor25_extremal.json"])
def test_checked_in_extremal_files_are_rewritten_unchanged(name, tmp_path):
    save_scenario(load_scenario(DATA / name), tmp_path / name)
    _assert_written(tmp_path / name, (DATA / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("extra", [{"bound_slack": 0.25}, {}], ids=["given", "absent"])
def test_bound_slack_is_written_back_only_when_given(extra, tmp_path):
    data = json.loads((DATA / "cor23_extremal.json").read_text(encoding="utf-8"))
    data["tolerances"].update(extra)
    scenario = scenario_from_dict(data)
    save_scenario(scenario, tmp_path / "slack.json")
    written = json.loads((tmp_path / "slack.json").read_text(encoding="utf-8"))
    assert scenario_to_dict(scenario)["tolerances"] == written["tolerances"] == {
        "tau_hyp": 1e-09, "tau_on": 1e-10, **extra}


@pytest.mark.parametrize("argv, build", [
    (["--bound", "COR_2_3", "--m", "1", "--M", "4", "--field", "complex", "--dim", "3"],
     lambda: extremal_scenario("COR_2_3", {"m": 1.0, "M": 4.0}, d=3, field=COMPLEX,
                               n_panels=8192)),
    (["--bound", "THM_3_1", "--n-family", "3", "--c", "0.75"],
     lambda: extremal_scenario("THM_3_1", {"n_family": 3, "c": 0.75}, n_panels=8192)),
], ids=["COR_2_3-complex", "THM_3_1-family"])
def test_extremal_scenario_out_is_json_dumps_text(argv, build, tmp_path, capsys):
    path = tmp_path / "extremal.json"
    main(["extremal", *argv, "--panels", "8192", "--scenario-out", str(path)])
    capsys.readouterr()
    _assert_written(path, _dumps(scenario_to_dict(build())))


def test_scenario_to_dict_and_save_scenario_share_one_tree():
    scenario = generate_scenario("COR_3_5", 4, 0, field=COMPLEX, n_panels=512)
    tree = _scenario_tree(scenario)
    rows = tree["function"]["values"]
    # the complex samples are viewed as [re, im] pairs, not copied
    assert rows.shape == (513, scenario.d, 2) and np.shares_memory(rows, scenario.f.values)
    assert _plain(tree) == scenario_to_dict(scenario)


def test_a_large_scenario_is_streamed(tmp_path):
    scenario = generate_scenario("COR_3_3", 5, 0, d=8, field=COMPLEX, n_panels=65536)
    values = scenario.f.values
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_scenario(scenario, tmp_path / "large.json")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the whole text alone is ~42 MiB; one node block of it is a few
    assert peak <= values.nbytes + 4 * 2 ** 20, (peak, values.nbytes)


# --------------------------------------------------------------------------
# random trees

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, 1e22, -1e22, 1.7976931348623157e308,
           math.nan, math.inf, -math.inf]
_floats = st.one_of(st.floats(), st.sampled_from(SPECIAL))
_text = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "é", "☃", "\U0001f600", 'quote "', "back\\slash", "\n\t\x00",
                     # strings that look like the writer's placeholders
                     "revtri-array-0", 'x"revtri-array-0', "revtri-array-1"]))
_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                  max_side=5), elements=_floats)
_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), _floats, _text, _arrays,
    _arrays.map(lambda a: a.T),  # not C-ordered
    hnp.arrays(np.float64, (), elements=_floats),
    hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, max_side=3)))
_trees = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(_text, inner, max_size=4)), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(tree=_trees, block=st.sampled_from([1, 2, 3, scenario_module._NODE_BLOCK]))
def test_random_trees_are_written_as_json_dumps_writes_them(tree, block, tmp_path_factory):
    path = tmp_path_factory.mktemp("tree") / "tree.json"
    with mock.patch.object(scenario_module, "_NODE_BLOCK", block):
        _write_json(tree, path)
    _assert_written(path, _dumps(_plain(tree)))


@pytest.mark.parametrize("text", ["revtri-array-0", 'x"revtri-array-0', "revtri-array-1"])
def test_strings_like_a_placeholder_stay_strings(text, tmp_path):
    tree = {text: [np.array([1.0, math.nan]), text], "values": np.eye(2)}
    _write_json(tree, tmp_path / "x.json")
    _assert_written(tmp_path / "x.json", _dumps(_plain(tree)))


def test_a_tree_json_cannot_encode_raises_as_json_does(tmp_path):
    for leaf in (np.array([1j]), object()):
        with pytest.raises(TypeError) as want:
            json.dumps(_plain({"x": leaf}))
        with pytest.raises(TypeError) as got:
            _write_json({"x": leaf}, tmp_path / "x.json")
        assert str(got.value) == str(want.value)
    assert not (tmp_path / "x.json").exists()


# --------------------------------------------------------------------------
# fuzz summaries

def _summary_with_a_counterexample() -> FuzzSummary:
    summary = FuzzSummary("COR_3_5", trials=3, seed=21, holds=2, violated=1,
                          worst_margin=-0.25, worst_margin_trial=1)
    scenario = generate_scenario("COR_3_5", 21, 1, field=COMPLEX, n_panels=4098)
    summary.counterexamples.append({"trial": 1, "margin": -0.25, "err_budget": 1e-15,
                                    "scenario": _scenario_tree(scenario)})
    summary.printed_form_margins.extend([-0.5, 0.25])
    return summary


def test_fuzz_out_writes_the_summary_json_with_its_counterexamples(tmp_path, capsys):
    summary = _summary_with_a_counterexample()
    path = tmp_path / "fuzz.json"
    with mock.patch("revtri.cli.fuzz", lambda *args, **kwargs: summary):
        code = main(["fuzz", "--bound", "COR_3_5", "--trials", "3", "--seed", "21",
                     "--out", str(path)])
    assert code == 1 and "1 violated" in capsys.readouterr().out
    _assert_written(path, _dumps(summary.to_dict()))
    dumped = summary.to_dict()["counterexamples"][0]["scenario"]
    assert isinstance(dumped["function"]["values"], list)


def _writes_dumped_json(call: ast.Call) -> bool:
    """``<x>.write_text(...)`` with a ``json.dumps(...)`` call in its arguments."""
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "write_text"):
        return False
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "dumps" and isinstance(node.func.value, ast.Name)
               and node.func.value.id == "json"
               for arg in [*call.args, *(k.value for k in call.keywords)]
               for node in ast.walk(arg))


def test_json_files_have_one_writer():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and _writes_dumped_json(node)]
    assert found == []
