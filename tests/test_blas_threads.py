"""Reports that do not depend on the BLAS thread count.

Every sum over the nodes is numpy's elementwise product and pairwise ``add.reduce``, or
a running sum over the coordinates, and none is a BLAS product, whose sums OpenBLAS
splits by thread.  The same reports are computed in two interpreters, one with
``OPENBLAS_NUM_THREADS=1`` and one with 2, and compared byte for byte.  Before, the
COR_2_5 equality case at N = 65536 was judged ``violated`` on rounding alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from revtri.cli import main

ROOT = Path(__file__).resolve().parents[1]

#: Run in a fresh interpreter: prints {name: [report JSON, report CSV]} as JSON.
_REPORTS = """
import json, sys
from revtri import report_to_csv, report_to_json, run, scenario_from_dict
from revtri.extremal import extremal_scenario
from revtri.fuzz import generate_scenario
from tests.test_multi_block_reports import cone, family

scenarios = {
    "extremal-THM_3_1-complex-4": lambda: extremal_scenario(
        "THM_3_1", {}, d=4, field="complex", n_panels=65536),
    "fuzz-COR_3_3-complex-8": lambda: generate_scenario(
        "COR_3_3", 7, 0, d=8, field="complex", n_panels=65536),
    "cone-complex": lambda: scenario_from_dict(cone("complex")),
    "family-real": lambda: scenario_from_dict(family("real")),
}
out = {}
for name, make in scenarios.items():
    report = run(make())
    out[name] = [report_to_json(report), report_to_csv(report)]
json.dump(out, sys.stdout)
"""


def _reports(threads: int) -> dict:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _REPORTS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_reports_are_the_same_under_one_and_two_blas_threads():
    one, two = _reports(1), _reports(2)
    assert sorted(one) == sorted(two) == ["cone-complex", "extremal-THM_3_1-complex-4",
                                          "family-real", "fuzz-COR_3_3-complex-8"]
    for name in one:
        assert one[name] == two[name], name


def test_cor_2_5_equality_case_holds_at_65536_panels(capsys):
    assert main(["extremal", "--bound", "COR_2_5", "--m", "0.5", "--M", "2",
                 "--panels", "65536"]) == 0
    assert "COR_2_5    holds" in capsys.readouterr().out
