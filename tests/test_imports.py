"""Every name a package module imports is used in it, and every function,
class or method a package module defines is used somewhere; the same holds
for the test helpers in ``tests/support.py``.  The package exports exactly
the README's "Library API" list, and each command imports only the modules
it runs and builds only its own parser.  The package has one lazy loader,
its ``__getattr__``: it is the one place that imports a module by name, and
reading ``hermcycles.<module>`` loads that module and what it imports.

``__future__`` imports are exempt, and so is ``__init__.py``, which imports
no package module: it maps each exported name to its module and loads it on
first use.  A module-level function or class of the package counts as used
when a ``Name`` or ``Attribute`` node in the package, in ``bench/*.py`` or
in that list refers to it; the tests do not count.  A method of a
module-level class, dunder methods apart, counts as used when an
``Attribute`` node names it; a class with a base from outside the package
may override what that base calls, so its methods are not checked.  A
helper in ``tests/support.py`` counts as used when ``support.py`` itself or
a ``tests/test_*.py`` module refers to it.

The check goes by name, so a definition whose name something else also
has (a dataclass field, another class's method, a function of ``bench/``)
passes it unused.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def defined_names(source: str) -> set[str]:
    """The module-level functions, classes and assigned names of ``source``."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_the_readme_api_is_what_the_package_imports():
    api = readme_api()
    names = imported_names(api)
    exports = hermcycles._EXPORTS
    assert names == set(exports) == set(hermcycles.__all__)
    assert len(hermcycles.__all__) == len(exports)
    assert imported_names((PACKAGE / "__init__.py").read_text()) == set()
    for name, module in exports.items():
        # the table names the module that defines the name, not one that
        # imports it, and the package serves that module's object
        assert name in defined_names((PACKAGE / f"{module}.py").read_text()), (name, module)
        assert getattr(hermcycles, name) is getattr(importlib.import_module(f"hermcycles.{module}"), name)
    assert not hasattr(hermcycles, "no_such_name")
    attributes = [node for node in ast.walk(ast.parse(api)) if isinstance(node, ast.Attribute)]
    assert attributes
    for node in attributes:
        assert node.value.id in names and hasattr(getattr(hermcycles, node.value.id), node.attr)


# One request per command, and the modules it must not load: a command
# imports only what it runs.
COMMANDS = {
    "hilbert": (
        [],
        '{"a": "-1", "b": "-3", "place": 3}',
        {"lattice", "ramified", "cycles", "vertices", "global_cycles", "dataclasses"},
    ),
    "jordan": (["--p", "3"], '{"gram": [[1, 0], [0, 3]]}', {"vertices", "global_cycles"}),
    "cycle": (["--p", "3"], '{"matrix": [[1, 0], [0, 3]]}', {"vertices", "global_cycles"}),
    "global": ([], '{"delta": -3, "matrix": [[1, 0], [0, 1]]}', {"vertices"}),
    "vertices": (["--p", "3"], '{"gram": [[1, 0], [0, 3]]}', {"global_cycles"}),
    "verify": (["--p", "3"], '{"gram": [[1, 0], [0, 3]]}', {"global_cycles"}),
}

# Runs one command as `python -m hermcycles.cli` does, in a fresh
# interpreter, and writes to stderr the modules it added to sys.modules, on
# one line, then the commands it built a parser for and how often it built
# the tree of all commands.
CLOSURE_SCRIPT = """
import sys
before = set(sys.modules)
from hermcycles import cli
trees = []
build = cli.build_parser
cli.build_parser = lambda: trees.append(1) or build()
code = cli.run(sys.argv[1:])
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)) + "\\n")
sys.stderr.write(" ".join(cli._PARSERS) + f" {len(trees)}")
sys.exit(code)
"""


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(command):
    argv, text, forbidden = COMMANDS[command]
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", CLOSURE_SCRIPT, command, *argv],
        input=text,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    modules, parsers = proc.stderr.split("\n")
    assert parsers.split() == [command, "0"]
    loaded = set(modules.split())
    assert {"hermcycles.cli", "hermcycles.errors", "hermcycles.padic"} <= loaded
    short = {name.removeprefix("hermcycles.") for name in loaded}
    assert short & forbidden == set(), command


def fresh_python(*args, stdin: str = "") -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the package."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("argv", [[], ["no-such-command", "--p", "3"]])
def test_a_vector_that_names_no_command_loads_no_command_module(argv):
    # the tree answers it with a schema error; no command parser is built
    # and no module past those cli imports is loaded
    proc = fresh_python("-c", CLOSURE_SCRIPT, *argv)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "schema-violation"
    modules, parsers = proc.stderr.split("\n")
    assert parsers.split() == ["1"]
    loaded = {name for name in modules.split() if name.startswith("hermcycles.")}
    assert loaded == {"hermcycles.cli", "hermcycles.errors", "hermcycles.padic"}


def package_closure(module: str) -> set[str]:
    """``module`` and the package modules it imports, directly or not."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            tree = ast.parse((PACKAGE / f"{name}.py").read_text())
            todo += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    return seen


# Reads hermcycles.lattice twice in a fresh interpreter, with the package's
# __getattr__ recording the names it is asked for, then two names that are
# neither exported nor a module of the table; prints the package modules
# loaded, the names asked for, and the names that raised AttributeError.
LOADER_SCRIPT = """
import sys
import hermcycles
asked = []
load = hermcycles.__getattr__
hermcycles.__getattr__ = lambda name: asked.append(name) or load(name)
first = hermcycles.lattice
assert hermcycles.lattice is first is sys.modules["hermcycles.lattice"]
print(" ".join(sorted(name for name in sys.modules if name.startswith("hermcycles."))))
print(" ".join(asked))
missing = []
for name in ("no_such_name", "cli"):
    try:
        getattr(hermcycles, name)
    except AttributeError:
        missing.append(name)
print(" ".join(missing))
"""


def test_the_package_loads_a_module_of_its_table_on_the_first_read():
    proc = fresh_python("-c", LOADER_SCRIPT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded, asked, missing = proc.stdout.splitlines()
    closure = package_closure("lattice")
    assert closure & {"vertices", "cycles", "global_cycles", "cli"} == set()
    assert set(loaded.split()) == {f"hermcycles.{name}" for name in closure}
    # the import binds the module on the package: the second read is a
    # plain attribute lookup
    assert asked.split() == ["lattice"]
    assert missing.split() == ["no_such_name", "cli"]


def loader_calls(source: str) -> list[int]:
    """The lines of the calls of ``__import__`` or ``import_module``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("__import__", "import_module"):
                lines.append(node.lineno)
    return lines


def test_the_checker_sees_a_loader():
    source = "import importlib\n__import__('a')\nimportlib.import_module('b')\nprint('c')\n"
    assert loader_calls(source) == [2, 3]


def test_the_package_has_one_lazy_loader():
    calls = {p.name: len(loader_calls(p.read_text())) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: count for name, count in calls.items() if count} == {"__init__.py": 1}


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
