"""Inputs that once escaped the CLI as tracebacks: each is an input error, so the CLI
exits 3 with one ``error:`` line.  So do usage errors, which argparse would exit with 2,
the code of a failed hypothesis, inputs too large to allocate, files that cannot be read
and output files that cannot be written.  An internal error exits 70 with its traceback,
never 1, the code of a violated bound.  An error line quotes at most 80 characters of a
bad value.  Checks on inputs are real errors, never ``assert`` statements, which
``python -O`` strips.  A closed standard output is not a verdict: the CLI exits 141
(128 + SIGPIPE) without a traceback.  Matrix products sit only in listed functions, and
the CLI names no bound."""

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
from revtri.errors import QUOTE_LIMIT, quoted

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


#: A bad value of this many entries or characters, which the error line quotes only in part.
HUGE = 10 ** 5

#: Where a huge bad value sits in ``cor23_extremal.json`` (a key path), and the value.
HUGE_VALUES = {
    "N": (("N",), [0.5] * HUGE),
    "params.m": (("bounds", 0, "params", "m"), "m" * HUGE),
    "d": (("d",), [2] * HUGE),
    "variant": (("function", "variant"), "v" * HUGE),
    "bound_id": (("bounds", 0, "bound_id"), "B" * HUGE),
}


@pytest.mark.parametrize("name", sorted(HUGE_VALUES))
def test_a_huge_bad_value_gives_a_short_error_line(name, tmp_path, capsys):
    """The error line quotes about 80 characters of the value: at the parent of this
    change it quoted all of it, 100,061 to 500,047 bytes."""
    data = json.loads((DATA / "cor23_extremal.json").read_text(encoding="utf-8"))
    (*parents, last), value = HUGE_VALUES[name]
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, captured.err[:300]
    assert lines[0].startswith("error: ") and lines[0].endswith("..."), lines[0]
    assert len(captured.err.encode("utf-8")) < 300, captured.err


#: Usage errors with a bad argument in place of ARG: the argument's name and the character
#: a huge bad argument repeats (a short one is "x").
HUGE_ARGUMENTS = [
    (["fuzz", "--bound", "ARG", "--trials", "1", "--seed", "1"], "--bound", "x"),
    (["fuzz", "--bound", "THM_2_1", "--field", "ARG", "--trials", "1", "--seed", "1"],
     "--field", "x"),
    (["fuzz", "--bound", "THM_2_1", "--trials", "ARG", "--seed", "1"], "--trials", "9"),
    (["extremal", "--bound", "COR_2_2", "--rho", "ARG"], "--rho", "x"),
]


@pytest.mark.parametrize("argv, name, char", HUGE_ARGUMENTS, ids=lambda v: str(v))
def test_a_huge_bad_argument_gives_a_short_usage_error(argv, name, char, capsys):
    """A usage error quotes at most 80 characters of the bad argument, and otherwise reads
    as for a short one, with the argument's name and any list of choices: it quoted all of
    it before, 100,388 to 100,585 bytes of stderr."""
    def usage_error(value):
        with pytest.raises(SystemExit) as exc:
            main([value if a == "ARG" else a for a in argv])
        assert exc.value.code == 3
        return capsys.readouterr().err

    short, huge = usage_error("x"), usage_error(char * HUGE)
    line = huge.splitlines()[-1]
    assert line.startswith(f"revtri {argv[0]}: error: argument {name}: invalid "), line
    assert quoted(char * HUGE) in line and "Traceback" not in huge
    assert huge == short.replace(quoted("x"), quoted(char * HUGE))


def test_a_bad_fuzz_bound_lists_the_bound_ids_once(capsys):
    """``fuzz --bound`` shows the metavar BOUND in its usage line, so a bad id's error lists
    the 17 ids once, in its list of choices: before, the usage line listed them too (586
    bytes of stderr for a one-character id)."""
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--bound", "x", "--trials", "1", "--seed", "1"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "--bound BOUND" in err.splitlines()[0], err
    choices = ", ".join(map(repr, sorted(ALL_BOUND_IDS)))
    assert err.splitlines()[-1].endswith(f"invalid choice: 'x' (choose from {choices})")
    assert all(err.count(bound_id) == 1 for bound_id in ALL_BOUND_IDS), err
    assert len(err.encode("utf-8")) < 450, len(err)


def test_a_huge_bad_value_through_the_python_api_gives_a_short_error():
    """A bad bound id, field or parameter given to the Python API is quoted in at most 80
    characters: before, ``check_ball`` quoted a 10^5-character radius whole (100,044
    characters) and ``evaluate``, ``generate_scenario`` and ``fuzz`` a bound id (100,019)."""
    from revtri import bounds as B
    from revtri.fuzz import fuzz, generate_scenario

    huge = "x" * HUGE
    scenario = generate_scenario("COR_2_2", 1, 0)
    f, ref, params = scenario.f, scenario.reference, scenario.bounds[0].params
    calls = [
        lambda: B.check_ball(f, ref.e, huge),
        lambda: B.evaluate(f, ref, params, huge),
        lambda: B.eval_unit_bound(f, ref.e, params, huge),
        lambda: generate_scenario(huge, 1, 0),
        lambda: fuzz(huge, 1, 1),
        lambda: generate_scenario("COR_2_2", 1, 0, field=huge),
        lambda: fuzz("COR_2_2", 1, 1, field=huge),
    ]
    for call in calls:
        with pytest.raises(revtri.InputError) as exc:
            call()
        assert quoted(huge) in str(exc.value) and len(str(exc.value)) < 200, str(exc.value)


@pytest.mark.parametrize("value", [
    None, True, 0.5, -0.0, float("nan"), 10 ** 50, "", "it's", 'say "x"', "x" * 78, [],
    (), (1,), (1, 2.5), {}, {"b": 1, "a": [1, (2,)]}, [[[]]], ["\x00" * 15], list(range(22)),
])
def test_quoted_keeps_a_repr_that_fits(value):
    assert len(repr(value)) <= QUOTE_LIMIT
    assert quoted(value) == repr(value)


@pytest.mark.parametrize("value", [
    "x" * 79, "\x00" * 30, list(range(27)), [0.5] * HUGE, "y" * HUGE, {"k" * 50: "v" * 50},
    (("a" * 40,) * 3,), 10 ** 100,
])
def test_quoted_cuts_a_long_repr_after_80_characters(value):
    assert len(repr(value)) > QUOTE_LIMIT
    assert quoted(value) == repr(value)[:QUOTE_LIMIT] + "..."


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


def _io_cases(tmp_path) -> dict:
    """name -> (argv, the file its one error line names).  Each once ended in a traceback
    and exit 1: an input file that is not UTF-8 or is nested past Python's recursion
    limit, and an output file in a directory that does not exist."""
    latin, deep, out = tmp_path / "latin.json", tmp_path / "deep.json", tmp_path / "no" / "o"
    latin.write_bytes(b'{"id": "x\xff"}')
    deep.write_text("[" * 200_000, encoding="utf-8")
    mult_b = ["extremal", "--bound", "MULT_B", "--rho", "0.6"]
    sweep = ["sweep", "--bound", "COR_2_3", "--param", "M", "--from", "4", "--to", "5",
             "--steps", "2"]
    return {
        "check utf8": (["check", str(latin)], latin),
        "sweep --base utf8": ([*sweep, "--base", str(latin)], latin),
        "check deep": (["check", str(deep)], deep),
        "check --out": (["check", str(DATA / "cor23_extremal.json"), "--out", str(out)], out),
        "extremal --out": ([*mult_b, "--out", str(out)], out),
        "extremal --scenario-out": ([*mult_b, "--scenario-out", str(out)], out),
        "fuzz --out": (["fuzz", "--bound", "COR_2_2", "--trials", "2", "--seed", "1",
                        "--out", str(out)], out),
        "sweep --out": ([*sweep, "--out", str(out)], out),
    }


IO_CASES = ["check utf8", "sweep --base utf8", "check deep", "check --out", "extremal --out",
            "extremal --scenario-out", "fuzz --out", "sweep --out"]


@pytest.mark.parametrize("name", IO_CASES)
def test_unreadable_input_or_unwritable_output_exits_3_from_the_shell(name, tmp_path):
    argv, path = _io_cases(tmp_path)[name]
    proc = subprocess.run([sys.executable, "-m", "revtri", *argv], capture_output=True,
                          env=_env(), text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), proc.stderr


def test_an_internal_error_exits_70_with_its_traceback():
    # a fault of the program is neither a verdict nor an input error
    code = ("import revtri.cli as cli\n"
            "def broken(args):\n"
            "    raise ZeroDivisionError('forced')\n"
            "cli._cmd_check = broken\n"
            "raise SystemExit(cli.main(['check', 'any.json']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=_env(),
                          text=True, timeout=120)
    assert proc.returncode == 70, proc.stderr
    assert proc.stderr.startswith("Traceback")
    assert proc.stderr.splitlines()[-1] == "ZeroDivisionError: forced"


def _input_check_files() -> dict:
    """Files that break one input check each, with the end of their one error line."""
    cor23 = json.loads((DATA / "cor23_extremal.json").read_text(encoding="utf-8"))
    ball = json.loads((DATA / "ball_hypothesis_fail.json").read_text(encoding="utf-8"))
    return {
        "list": ([1], ".json: scenario must be a JSON object"),
        "function": (dict(cor23, function=5), ".json.function: function must be an object"),
        "profile": (dict(cor23, bounds=[{"bound_id": "THM_2_1", "params": {"k": "x"}}]),
                    ".json.bounds[0].params.k: profile spec must be a number or a one-key "
                    "mapping, got 'x'"),
        "ball": (dict(ball, function=dict(ball["function"], u=[0.0, 1.0, 0.0],
                                          v=[0.0, 1.0, 0.0])),
                 ".json.function: ball_perturbation directions must be orthonormal with e "
                 "(worst Gram residual 1.000e+00)"),
    }


@pytest.mark.parametrize("name", ["list", "function", "profile", "ball"])
def test_input_check_of_a_file_exits_3(name, tmp_path, capsys):
    data, message = _input_check_files()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {name}{message}\n"


@pytest.mark.parametrize("argv, message", [
    (["extremal", "--bound", "COR_2_5", "--m", "4", "--M", "1"],
     "COR_2_5 recipe needs 0 <= m <= M with M > 0, got 4.0, 1.0"),
    (["sweep", "--bound", "COR_2_2", "--param", "m", "--from", "0", "--to", "1",
      "--steps", "2"], "COR_2_2 sweeps over ('rho',), not 'm'"),
    (["sweep", "--bound", "COR_2_2", "--param", "rho", "--from", "0.1", "--to", "0.5",
      "--steps", "0"], "steps must be >= 1"),
], ids=["extremal range", "sweep parameter", "sweep steps"])
def test_input_check_of_a_flag_exits_3(argv, message, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


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
    "bounds._projection_extra", "fuzz._Chunk.path", "hilbert.inner", "hilbert._gram",
    "hilbert._orthonormal_rows", "hilbert.vector_norm",
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
