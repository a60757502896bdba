"""Every name a package module imports is used in it, and every function,
class or method a package module defines is used somewhere; the same holds
for the test helpers in ``tests/support.py``.

``__future__`` imports are exempt, and so is ``__init__.py``, which
re-exports exactly the names of the README's "Library API" list.  A
module-level function or class of the package counts as used when a
``Name`` or ``Attribute`` node in the package, in ``bench/*.py`` or in that
list refers to it; the tests do not count.  A re-export in ``__init__.py``
is an import, not a use.  A method of a module-level class, dunder methods
apart, counts as used when an ``Attribute`` node names it; a class with a
base from outside the package may override what that base calls, so its
methods are not checked.  A helper in ``tests/support.py`` counts as used
when ``support.py`` itself or a ``tests/test_*.py`` module refers to it.

The check goes by name, so a definition whose name something else also
has (a dataclass field, another class's method, a function of ``bench/``)
passes it unused.
"""

import ast
from pathlib import Path

import hermcycles

PACKAGE = Path(hermcycles.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def dead_definitions(modules: dict[str, str], users: list[str]) -> list[str]:
    """Module-level functions and classes of ``modules`` (name -> source)
    that no Name or Attribute node in ``modules`` or ``users`` refers to, and
    non-dunder methods of those classes that no Attribute node names."""
    names, attributes = set(), set()
    for source in [*modules.values(), *users]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    trees = {module: ast.parse(source) for module, source in modules.items()}
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in names | attributes:
                dead.append(f"{module}:{node.lineno}: {node.name}")
            if isinstance(node, ast.ClassDef) and all(
                isinstance(base, ast.Name) and base.id in classes for base in node.bases
            ):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and item.name not in attributes
                    ):
                        dead.append(f"{module}:{item.lineno}: {node.name}.{item.name}")
    return dead


def test_the_checker_sees_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction, gcd as g\n"
        "from math import inf  # noqa: F401\n"
        "x = os.sep + Fraction(1)\n"
    )
    assert unused_imports(source) == ["line 3: g", "line 4: inf"]


def test_no_unused_imports_in_the_package():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_no_unused_imports_in_the_test_support():
    assert unused_imports((TESTS / "support.py").read_text()) == []


def test_the_checker_sees_a_dead_definition():
    modules = {
        "a.py": "def used():\n    return helper()\n\ndef helper():\n    pass\n\nclass Dead:\n    pass\n",
        "b.py": "import a\n\ndef called_by_attribute():\n    pass\n\ndef dead():\n    pass\n",
        "c.py": (
            "class Box:\n"
            "    def __init__(self):\n        self.kept()\n"
            "    def kept(self):\n        pass\n"
            "    def dead_method(self):\n        pass\n"
            "    def named_only(self):\n        pass\n"
            "class Parser(argparse.ArgumentParser):\n"
            "    def error(self, message):\n        pass\n"
        ),
    }
    users = ["from a import Dead\nimport b\na.used()\nb.called_by_attribute()\nc.Box()\nc.Parser\nnamed_only\n"]
    assert dead_definitions(modules, users) == [
        "a.py:7: Dead",
        "b.py:6: dead",
        "c.py:6: Box.dead_method",
        "c.py:8: Box.named_only",
    ]


def readme_api() -> str:
    """The Python block of the README's "Library API" section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def imported_names(source: str) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_the_readme_api_is_what_the_package_imports():
    api = readme_api()
    names = imported_names(api)
    assert names == imported_names((PACKAGE / "__init__.py").read_text())
    attributes = [node for node in ast.walk(ast.parse(api)) if isinstance(node, ast.Attribute)]
    assert attributes
    for node in attributes:
        assert node.value.id in names and hasattr(getattr(hermcycles, node.value.id), node.attr)


def test_no_dead_definitions_in_the_package():
    modules = {
        p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"
    }
    api = readme_api()
    # what the list imports is what a caller may use: write each name out as a use
    users = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    users.append(api + "\n".join(sorted(imported_names(api))))
    assert dead_definitions(modules, users) == []


def test_no_dead_definitions_in_the_test_support():
    modules = {"support.py": (TESTS / "support.py").read_text()}
    users = [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
    assert dead_definitions(modules, users) == []
