"""The benchmark's traced replay runs against the package as it is.

``test_bench_surface.py`` checks the names ``bench/`` takes from revtri and the calls
it makes; it cannot see the attributes the replay reads on returned objects
(``entry.params.m_profile``, ``f.jumps``, ``reference.family.members``,
``scenario.tolerances``).  Here ``bench/replay.py`` and ``bench/workloads.py`` are
imported as they are and the replay runs on every closed-form file kind and one fuzz
trial per bound, on small grids: each replayed report must equal ``run()``'s."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

import revtri

BENCH = Path(__file__).resolve().parent.parent / "bench"
N_PANELS = 64


@pytest.fixture(scope="module")
def bench():
    """(replay, workloads), imported from ``bench/`` the way ``bench/run.py`` does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        return importlib.import_module("replay"), importlib.import_module("workloads")


def test_the_replay_finds_every_public_call(bench):
    replay, _ = bench
    assert replay.MISSING_API == []


def test_replayed_checks_equal_run(bench, tmp_path, monkeypatch):
    """The files of ``check_closed``: the cone, ball and family files, real and complex,
    and both complex curves."""
    replay, workloads = bench
    monkeypatch.setattr(workloads, "CLOSED_PANELS", N_PANELS)
    closed = workloads.CheckClosed(0, tmp_path, None)
    closed.setup()
    tracer = replay.Tracer()
    causes = []
    for op in closed.ops:
        with tracer.op(op.key):
            report, scenario = replay.replay_check(tracer, op.args[0])
        assert scenario.grid.n_panels == N_PANELS
        reference = revtri.run(revtri.load_scenario(op.args[0]))
        causes += replay.same_report(op.key, report, reference)
    assert len(closed.ops) == 8 and causes == []


@pytest.mark.parametrize("bound_id", sorted(revtri.ALL_BOUND_IDS))
def test_replayed_fuzz_trial_equals_run(bench, bound_id):
    replay, workloads = bench
    seed, cfg = workloads.campaign_args(bound_id, 0)
    tracer = replay.Tracer()
    with tracer.op(bound_id):
        report, _ = replay.replay_fuzz_trial(tracer, bound_id, seed, 0, n_panels=N_PANELS,
                                             **cfg)
    summary = revtri.fuzz(bound_id, 1, seed, n_panels=N_PANELS, keep_reports=True, **cfg)
    assert replay.same_report(bound_id, report, summary.reports[0]) == []
