"""Inputs that once escaped the CLI as tracebacks: each is an input error, so the CLI
exits 3 with one ``error:`` line.  Checks on inputs are real errors, never ``assert``
statements, which ``python -O`` strips.  A closed standard output is not a verdict:
the CLI exits 141 (128 + SIGPIPE) without a traceback."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revtri
from revtri.cli import main

SRC = Path(revtri.__file__).resolve().parent

CRASH_CASES = [
    ["extremal", "--bound", "THM_2_1"],
    ["extremal", "--bound", "COR_2_2"],
    ["extremal", "--bound", "COR_2_3", "--m", "1"],
    ["extremal", "--bound", "COR_2_4"],
    ["extremal", "--bound", "COR_2_5", "--M", "4"],
    ["extremal", "--bound", "COR_2_5", "--m", "1", "--M", "inf"],
    ["extremal", "--bound", "COR_2_5", "--m", "0", "--M", "1e-170"],
    ["fuzz", "--bound", "COR_2_2", "--trials", "1", "--seed", "-1"],
    ["fuzz", "--bound", "COR_2_2", "--trials", "1", "--seed", "18446744073709551616"],
]


@pytest.mark.parametrize("argv", CRASH_CASES, ids=" ".join)
def test_crash_case_exits_3_with_one_error_line(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("argv", [
    ["extremal", "--bound", "THM_2_1", "--k", "0.5"],
    ["sweep", "--bound", "COR_2_2", "--param", "rho", "--from", "0.1", "--to", "0.9",
     "--steps", "400"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the first write to the pipe fails
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "revtri", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
