"""Inputs that once escaped the CLI as tracebacks: each is an input error, so the CLI
exits 3 with one ``error:`` line.  So do usage errors, which argparse would exit with 2,
the code of a failed hypothesis, and inputs too large to allocate.  Checks on inputs are
real errors, never ``assert`` statements, which ``python -O`` strips.  A closed standard
output is not a verdict: the CLI exits 141 (128 + SIGPIPE) without a traceback.  Matrix
products sit only in listed functions, and the CLI names no bound."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revtri
from revtri.bounds import ALL_BOUND_IDS
from revtri.cli import main

SRC = Path(revtri.__file__).resolve().parent
DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_reports.json"

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
    # sizes beyond np.intp, which numpy cannot describe
    ["extremal", "--bound", "THM_2_1", "--k", "0.5", "--panels", str(10 ** 29)],
    ["extremal", "--bound", "THM_2_1", "--k", "0.5", "--dim", str(10 ** 29)],
    ["extremal", "--bound", "THM_3_1", "--dim", str(10 ** 29)],
    ["fuzz", "--bound", "COR_2_2", "--trials", "1", "--seed", "1", "--dim", str(10 ** 20)],
    # 2**50 nodes exceed the 47-bit address space: the allocation fails at once
    ["extremal", "--bound", "THM_2_1", "--k", "0.5", "--panels", str(2 ** 50)],
]

USAGE_ERRORS = [
    ["check"],
    ["fuzz", "--bound", "NOPE", "--trials", "1", "--seed", "1"],
    ["fuzz", "--bound", "COR_2_2", "--trials", "x", "--seed", "1"],
    ["sweep", "--bound", "COR_2_2", "--param", "rho", "--from", "0.1", "--to", "0.9"],
    ["check", "x.json", "--no-such-option"],
]


@pytest.mark.parametrize("argv", CRASH_CASES, ids=" ".join)
def test_crash_case_exits_3_with_one_error_line(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_exits_3(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "error: " in err.splitlines()[-1] and "Traceback" not in err


def _env() -> dict:
    """The environment of a ``python -m revtri`` subprocess that imports this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))


def test_usage_error_exits_3_from_the_shell_and_help_exits_0():
    for argv, code in ((USAGE_ERRORS[0], 3), (["check", "--help"], 0)):
        proc = subprocess.run([sys.executable, "-m", "revtri", *argv], capture_output=True,
                              env=_env(), text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


def _golden_file(name: str) -> dict:
    """The scenario file recorded for the golden case ``name``."""
    return json.loads("\n".join(json.loads(GOLDEN.read_text(encoding="utf-8"))[name]["scenario"]))


def _overflowing_files() -> dict:
    """Files whose parse overflows in numpy, each with the start of its one error line:
    omega t of a ball perturbation (which put NaN in the nodes behind three numpy
    warnings), the squared norm of a reference and the Gram product of a family."""
    ball = _golden_file("data-ball_hypothesis_fail")
    family = _golden_file("family-extremal-n3")
    family["reference"]["family"][0][0] = 1e200
    return {
        "interval": (dict(ball, interval=[-1e308, 1.0]),
                     "error: interval.json.function: floating-point overflow"),
        "reference": (dict(ball, reference={"e": [1e200, 0.0, 0.0]}),
                      "error: reference.json.reference.e: e must be a unit vector"),
        "family": (family, "error: family.json.reference.family: family is not orthonormal"),
    }


@pytest.mark.parametrize("name", ["interval", "reference", "family"])
def test_an_overflowing_parse_prints_one_error_line(name, tmp_path):
    data, message = _overflowing_files()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "revtri", "check", str(path)],
                          capture_output=True, env=_env(), text=True, timeout=120)
    assert proc.returncode == 3 and proc.stdout == "", proc.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), proc.stderr


def test_an_infinite_budget_exits_3(tmp_path, capsys):
    """On [-1e308, 1] the tau edge file's lhs 5.0e307 exceeds its rhs 4.99999999e307; its
    budget overflowed to inf and it was judged ``holds``."""
    path = tmp_path / "edge.json"
    data = dict(_golden_file("data-dominance_tau_edge"), interval=[-1e308, 1.0])
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, captured
    assert lines[0].startswith("error: [dominance-tau-edge:THM_2_1] THM_2_1 is not judged on "
                               "non-finite numbers: lhs=5.000000000000002e+307, "
                               "rhs=4.999999994999999e+307"), lines[0]


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_file_too_large_to_allocate_exits_3(command, tmp_path, capsys):
    data = json.loads((DATA / "cor23_extremal.json").read_text(encoding="utf-8"))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(data, N=2 ** 50)), encoding="utf-8")
    argv = (["check", str(path)] if command == "check" else
            ["sweep", "--bound", "COR_2_3", "--param", "M", "--from", "4", "--to", "5",
             "--steps", "2", "--base", str(path)])
    assert main(argv) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "allocate" in lines[0]


def test_package_has_no_assert_statement():
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _bound_names(tree) -> list[int]:
    """Lines naming a bound: a string literal equal to a bound id, or ``<module>.<bound id>``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ALL_BOUND_IDS
            or isinstance(node, ast.Attribute) and node.attr in ALL_BOUND_IDS]


def test_cli_names_no_bound():
    # flags, choices and branches come from the registries, so a new bound needs no CLI edit
    assert _bound_names(ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))) == []
    assert _bound_names(ast.parse('B.THM_3_1\nx = "COR_2_2"\ny = f"{B.MULT_A}"')) == [1, 2, 3]


@pytest.mark.parametrize("argv", [
    ["extremal", "--bound", "THM_2_1", "--k", "0.5"],
    ["sweep", "--bound", "COR_2_2", "--param", "rho", "--from", "0.1", "--to", "0.9",
     "--steps", "400"],
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the first write to the pipe fails
    try:
        proc = subprocess.run([sys.executable, "-m", "revtri", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_env(), text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


#: The functions that may take a matrix product (``@``, ``np.dot``, ``np.matmul``,
#: ``np.einsum``, ``np.inner``, ``np.vdot``, or the ``.dot`` method of any object).  BLAS
#: may split such a product's sums by thread, so every new site is listed here on purpose.
MATRIX_PRODUCT_SITES = {
    "bounds._projection_extra", "fuzz._trig_path", "hilbert.inner", "hilbert._gram",
    "hilbert.orthonormalize", "hilbert.vector_norm",
}
_PRODUCT_CALLS = {"dot", "matmul", "einsum", "inner", "vdot"}


def _is_product_call(node) -> bool:
    """``np.<product>(...)``, or a ``.dot(...)`` method call on any object."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    attr, owner = node.func.attr, node.func.value
    return attr == "dot" or (attr in _PRODUCT_CALLS and isinstance(owner, ast.Name)
                             and owner.id == "np")


def _matrix_products(node, scope):
    """(enclosing function, line) of each matrix product under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _matrix_products(child, f"{scope}.{child.name}")
            continue
        if (isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult)
                or _is_product_call(child)):
            yield scope, child.lineno
        yield from _matrix_products(child, scope)


def test_matrix_products_sit_in_listed_functions():
    found = [site for path in sorted(SRC.rglob("*.py"))
             for site in _matrix_products(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert [f"{scope}:{line}" for scope, line in found if scope not in MATRIX_PRODUCT_SITES] == []
    assert {scope for scope, _ in found} == MATRIX_PRODUCT_SITES
    sample = "def f(x, y):\n    return x.dot(x) + x.real.dot(y)[0] + np.dot(x, y) + x @ y\n"
    assert [line for _, line in _matrix_products(ast.parse(sample), "m")] == [2] * 4
