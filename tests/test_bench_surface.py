"""The benchmark's surface: every name ``bench/*.py`` takes from revtri resolves, and
every call it makes into revtri binds to the callee's signature, so a cleanup inside
``src/`` cannot break the benchmark unseen (``python -m pytest`` does not run
``bench/test_bench.py``).  The bound evaluators keep ``rule`` where
``bench/replay.py`` passes it by position."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import revtri

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(dotted: str):
    """The object a dotted name starting at a revtri module names; a submodule is
    imported when no attribute of that name exists."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def _dotted(node: ast.expr, roots: dict[str, str]) -> str | None:
    """``node`` as a dotted revtri name if it is a chain of attributes on a root
    (``revtri`` or a name imported from revtri), else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in roots:
        return None
    return ".".join([roots[node.id], *reversed(attrs)])


def _bench_uses():
    """(file, dotted name, call node or None) for each revtri name bench/*.py uses."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        roots = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots.update((a.asname or a.name, a.name) for a in node.names
                             if a.name == "revtri")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "revtri"):
                for alias in node.names:
                    roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    yield path.name, f"{node.module}.{alias.name}", None
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func, roots)
                if name is not None:
                    yield path.name, name, node
            elif isinstance(node, ast.Attribute):
                name = _dotted(node, roots)
                if name is not None:
                    yield path.name, name, None


USES = list(_bench_uses())


def test_the_bench_uses_revtri():
    names = {name for _, name, _ in USES}
    assert {"revtri.run", "revtri.eval_unit_bound", "revtri.cli"} <= names


@pytest.mark.parametrize("where, name", sorted({(w, n) for w, n, _ in USES}))
def test_every_name_the_bench_takes_resolves(where, name):
    _resolve(name)


def _calls():
    for where, name, call in USES:
        if call is not None and not any(isinstance(a, ast.Starred) for a in call.args) \
                and all(k.arg is not None for k in call.keywords):
            yield pytest.param(name, call, id=f"{where}:{call.lineno}:{name}")


@pytest.mark.parametrize("name, call", list(_calls()))
def test_every_bench_call_binds(name, call):
    """The call's arguments bind to the signature, and a variable passed by position
    whose name is a parameter of the callee lands on that parameter."""
    signature = inspect.signature(_resolve(name))
    signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
    positional = [p.name for p in signature.parameters.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    for arg, param in zip(call.args, positional):
        if isinstance(arg, ast.Name) and arg.id in signature.parameters:
            assert arg.id == param, (arg.id, param)


def test_bound_evaluators_take_rule_by_position():
    calls = [(name, call) for _, name, call in USES
             if call is not None and name.startswith("revtri.eval_")]
    assert {name for name, _ in calls} == {
        "revtri.eval_unit_bound", "revtri.eval_family_bound", "revtri.eval_complex_bound"}
    for name, call in calls:
        params = list(inspect.signature(_resolve(name)).parameters)
        at = [i for i, arg in enumerate(call.args) if isinstance(arg, ast.Name)
              and arg.id == "rule"]
        assert at and params[at[0]] == "rule", name
