"""Inputs that once escaped the CLI as tracebacks: each is an input error, so the CLI
exits 3 with one ``error:`` line.  Checks on inputs are real errors, never ``assert``
statements, which ``python -O`` strips."""

from __future__ import annotations

import ast
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
