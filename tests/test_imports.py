"""Every top-level import in the package is used by the module that makes
it, every private top-level definition is read by some module, and only the
file routes open files.

A stdlib ``ast`` scan: a module's top-level ``import`` and ``from ... import``
statements bind names, and each bound name must be read somewhere in the
module. ``__init__.py`` files are skipped, since their imports are the
package's re-exports, and so are ``from __future__`` imports. A top-level
``def`` or ``class`` whose name starts with one underscore is private to the
package, so some module of the package must read it: as a name, as an
attribute, or through an import. A call of ``open`` may stand only in
``verbs.Paths``, through which every verb reads and writes its files, in
``manifest``, which writes the bundle's own files, and in ``diagrams.save``
and ``diagrams.load``.
"""

import ast
import functools
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ddlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# module -> the top-level definitions that may call ``open``; ``manifest``
# writes the bundle's own files and may open them anywhere
OPENERS = {"verbs.py": {"Paths"}, "diagrams.py": {"save", "load"}}


def unused_imports(source):
    """(line, name) for each top-level import binding the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def private_definitions(source):
    """(line, name) for each top-level def or class with a private name."""
    return [(stmt.lineno, stmt.name) for stmt in ast.parse(source).body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")]


def names_read(source):
    """Every name a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


@functools.cache
def package_reads():
    return frozenset().union(*(names_read(p.read_text()) for p in PACKAGE.glob("*.py")))


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from json import dumps, loads as parse\n"
              "x = parse(os.sep)\n")
    assert unused_imports(source) == [(2, "osp"), (3, "dumps")]


def test_package_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == [], f"{path.name} imports names it never uses"


def test_scan_finds_an_unread_private_definition():
    defining = ("def _used():\n    pass\n"
                "class _Unread:\n    pass\n"
                "def __dunder__():\n    pass\n"
                "def _imported():\n    pass\n"
                "_Unread = 1\n")
    reading = "from .a import _imported\nx = _used\n"
    read = names_read(defining) | names_read(reading)
    assert [d for d in private_definitions(defining) if d[1] not in read] == [(3, "_Unread")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_definition(path):
    unread = [d for d in private_definitions(path.read_text()) if d[1] not in package_reads()]
    assert unread == [], f"{path.name} defines private names no module reads"


def opening_definitions(source):
    """(line, top-level definition) for each call of ``open``; the definition
    is None for a call outside any."""
    found = []
    for stmt in ast.parse(source).body:
        name = getattr(stmt, "name", None)
        found += [(node.lineno, name) for node in ast.walk(stmt)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "open"]
    return found


def test_scan_finds_open_calls():
    source = ("with open('a') as fh:\n    pass\n"
              "class Route:\n    def read(self):\n        return open(self.f).read()\n"
              "def text(f):\n    return f.open()\n")
    assert opening_definitions(source) == [(1, None), (5, "Route")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "manifest.py"],
                         ids=lambda p: p.name)
def test_only_the_file_routes_open_files(path):
    allowed = OPENERS.get(path.name, set())
    stray = [f for f in opening_definitions(path.read_text()) if f[1] not in allowed]
    assert stray == [], f"{path.name} opens files outside verbs.Paths"


def imported_modules(source):
    """The top-level module of every import statement, anywhere in the module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def classes_defined(source):
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)}


def test_only_graphs_draws_random_numbers():
    # one seeded order search, graphs.sample_order, for every sampled search
    users = [p.name for p in MODULES if "random" in imported_modules(p.read_text())]
    assert users == ["graphs.py"]


def test_only_assignments_defines_the_order_type():
    # one order type, made by the one order check next to it
    owners = [p.name for p in MODULES if "LinearOrder" in classes_defined(p.read_text())]
    assert owners == ["assignments.py"]
