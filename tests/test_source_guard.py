"""Floats, runtime dependencies, assert statements, hand-written equality
and hand-written record constructors stay at zero in src/.

Every module is parsed and walked; a float literal, true division, the
name `float`, an import from outside nccwk and the standard library, an
import of `dataclasses`, an `assert` statement (which `python -O` drops),
an `__eq__` or `__hash__` in a class body, or an `__init__` that only sets
each of its parameters through `object.__setattr__(self, "x", x)` fails
the test with its file and line.  Value classes take their equality from
`fgab.intmat.Value` and opt into hashing with `__hash__ = Value.field_hash`;
only `Value` itself, `IntMatrix` and `FgGroup` write their own.  A record
takes its constructor from `fgab.intmat.Frozen`, which fills the slots in
order; a class writes its own `__init__` only to validate or derive.
`dataclasses` writes and `exec`s the methods of every class it decorates
each time the module is imported, which `.pyc` files do not cache; the
value classes are plain classes (`fgab.intmat.Frozen`), and a fresh
`import nccwk.harness.cli` loads neither `dataclasses` nor `inspect`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted(SRC.rglob("*.py"))
REFUSED_STDLIB = {"dataclasses"}
OWN_EQUALITY = {"Value", "IntMatrix", "FgGroup"}
EQUALITY = {"__eq__", "__hash__"}


def _sets_own_parameter(stmt, params):
    """stmt is object.__setattr__(self, "x", x) for a parameter x."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return False
    call = stmt.value
    if ast.unparse(call.func) != "object.__setattr__" or len(call.args) != 3:
        return False
    _, name, value = call.args
    return (isinstance(name, ast.Constant) and isinstance(value, ast.Name)
            and value.id == name.value and value.id in params)


def offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, f"float constant {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node, "the name float"
        elif isinstance(node, ast.Assert):
            yield node, "assert statement"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                names = [alias.name for alias in node.names]
            for name in names:
                top = name.split(".")[0]
                if top in REFUSED_STDLIB or (top != "nccwk" and top not in sys.stdlib_module_names):
                    yield node, f"import of {name}"
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
            params = {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
            if all(_sets_own_parameter(stmt, params) for stmt in node.body):
                yield node, "__init__ that only sets its parameters (Frozen.__init__ does)"
        elif isinstance(node, ast.ClassDef) and node.name not in OWN_EQUALITY:
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    names = [stmt.name]
                elif isinstance(stmt, ast.Assign) and ast.unparse(stmt.value) != "Value.field_hash":
                    names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in EQUALITY.intersection(names):
                    yield stmt, f"{name} written in class {node.name}"


def test_sources_found():
    assert SRC / "nccwk" / "fgab" / "intmat.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_floats_or_dependencies(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.relative_to(SRC)}:{node.lineno}: {what}" for node, what in offences(tree)]
    assert found == []


@pytest.mark.parametrize("snippet", ["x = 0.5", "x = a / b", "x /= 2", "y = float(x)",
                                     "import numpy", "from sympy import Matrix", "x = 1j",
                                     "assert x", "import dataclasses",
                                     "from dataclasses import dataclass",
                                     "class A:\n    def __eq__(self, other):\n        return True",
                                     "class A:\n    def __hash__(self):\n        return 0",
                                     "class A:\n    __hash__ = object.__hash__",
                                     "class A(Frozen):\n    def __init__(self, x, y):\n"
                                     "        object.__setattr__(self, 'x', x)\n"
                                     "        object.__setattr__(self, 'y', y)"])
def test_guard_catches(snippet):
    assert list(offences(ast.parse(snippet)))


def test_guard_passes_exact_code():
    code = ("from __future__ import annotations\nfrom .groups import FgGroup\nimport math\nx = 7 // 2\n"
            "class A(Value):\n    __hash__ = Value.field_hash\n"
            "class FgGroup:\n    def __eq__(self, other):\n        return True\n"
            "class B(Frozen):\n    def __init__(self, n, v):\n        if n < 0:\n"
            "            raise ValueError('n must be nonnegative')\n"
            "        object.__setattr__(self, 'n', n)\n        object.__setattr__(self, 'v', v)\n"
            "class C(Frozen):\n    def __init__(self, v):\n"
            "        object.__setattr__(self, 'v', tuple(v))\n")
    assert not list(offences(ast.parse(code)))


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """A fresh process importing the CLI, as every nccwk call does."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + path if path else str(SRC)}
    code = ("import sys, nccwk.harness.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
