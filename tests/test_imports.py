"""Every name a package module imports is used in it.

A name imported on a line carrying ``# noqa`` is exempt, as are
``__future__`` imports; ``__init__.py`` re-exports and is not checked.
"""

import ast
from pathlib import Path

import hermcycles

PACKAGE = Path(hermcycles.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_checker_sees_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction, gcd as g\n"
        "from math import inf  # noqa: F401\n"
        "x = os.sep + Fraction(1)\n"
    )
    assert unused_imports(source) == ["line 3: g"]


def test_no_unused_imports_in_the_package():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}
