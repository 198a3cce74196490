"""Floats, runtime dependencies and assert statements stay at zero in src/.

Every module is parsed and walked; a float literal, true division, the
name `float`, an import from outside nccwk and the standard library, an
import of `dataclasses` or an `assert` statement (which `python -O` drops)
fails the test with its file and line.  `dataclasses` writes and `exec`s
the methods of every class it decorates each time the module is imported,
which `.pyc` files do not cache; the value classes are plain classes
(`fgab.intmat.Frozen`), and a fresh `import nccwk.harness.cli` loads
neither `dataclasses` nor `inspect`.
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
                                     "from dataclasses import dataclass"])
def test_guard_catches(snippet):
    assert list(offences(ast.parse(snippet)))


def test_guard_passes_exact_code():
    code = "from __future__ import annotations\nfrom .groups import FgGroup\nimport math\nx = 7 // 2\n"
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
