"""Every top-level import in the package is used by the module that makes
it, every top-level definition is read by some module or has a stated
reason not to be, and only the file routes open files.

A stdlib ``ast`` scan: a module's top-level ``import`` and ``from ... import``
statements bind names, and each bound name must be read somewhere in the
module. ``__init__.py`` files are skipped, since their imports are the
package's re-exports, and so are ``from __future__`` imports. A top-level
``def`` or ``class`` whose name starts with one underscore is private to the
package, so some module of the package must read it: as a name, as an
attribute, or through an import. A public top-level ``def`` or ``class`` must
be read by some other top-level statement of the package (its own body does
not count), each read resolved by binding: a bare name in its own module, a
name imported from its module, or an attribute of a name bound to its
module, so neither a method of the same name nor a namesake in another
module counts. Otherwise it must be one of the functions that
``perfbench/tracing.py`` wraps (its ``LAYERS`` table, read with ``ast``), or
be in ``UNREAD``, which gives the reason each name there has no reader; an
entry there that is gone, traced or read fails too. A call of
``open`` may stand only in ``verbs.Paths``, through which every verb reads
and writes its files, in ``manifest``, which writes the bundle's own files,
and in ``diagrams.save`` and ``diagrams.load``.
"""

import ast
import functools
import pathlib
from collections import defaultdict

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ddlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# module -> the top-level definitions that may call ``open``; ``manifest``
# writes the bundle's own files and may open them anywhere
OPENERS = {"verbs.py": {"Paths"}, "diagrams.py": {"save", "load"}}
# module.name -> why this public definition has no reader in the package
UNREAD = {
    "alignment.check_model_decomposition": "the paper's model factorization, "
                                           "checked by acceptance criterion 2",
    "compile.respects": "structuredness, checked by acceptance criterion 1",
    "formulas.psi_path_decomposition": "the paper's path decomposition of psi's "
                                       "incidence graph, checked by acceptance criterion 8",
    "graphs.extract_neat": "the paper's neat-matching extraction, checked by "
                           "acceptance criterion 8",
    "graphs.treewidth_exact": "the width comparison of acceptance criterion 9",
    "diagrams.accepted": "the semantics oracle the class passes are tested against",
    "compile.read_vtree": "no verb reads a vtree yet; a planned validate --vtree will",
    "graphs.pathwidth_exact": "no verb computes it yet; a planned width measure will",
}


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


def definitions(source):
    """(line, name) for each top-level def or class."""
    return [(stmt.lineno, stmt.name) for stmt in ast.parse(source).body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def private_definitions(source):
    """(line, name) for each top-level def or class with a private name."""
    return [(line, name) for line, name in definitions(source)
            if name.startswith("_") and not name.startswith("__")]


def names_read(source):
    """Every name a module reads: loaded names, attributes and imported names."""
    return names_read_in(ast.parse(source))


def names_read_in(tree):
    read = set()
    for node in ast.walk(tree):
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


def module_bindings(tree):
    """Name -> module, for each ``from . import m`` or ``from . import m as
    name`` in the module: the names bound to modules of the package."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names}


def definitions_read_in(stmt, module, bound):
    """(module, name) for each definition that ``stmt``, a statement of
    ``module``, may read: a bare name as ``module``'s own, a name imported
    ``from .m`` as m's, and an attribute ``m.name`` as m's where ``bound``
    binds ``m`` to a module. Any other attribute, such as a method call
    ``a.project(...)``, reads no definition."""
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add((module, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound):
            read.add((bound[node.value.id], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            read.update((node.module, alias.name) for alias in node.names)
    return read


def unread_public(sources):
    """(module, line, name) for each public top-level def or class in
    ``sources`` (module -> source) that no other top-level statement reads,
    reads resolved by binding as ``definitions_read_in`` resolves them."""
    read = defaultdict(set)  # (module, name) -> (module, definition) reading it
    for module, source in sources.items():
        tree = ast.parse(source)
        bound = module_bindings(tree)
        for stmt in tree.body:
            for key in definitions_read_in(stmt, module, bound):
                read[key].add((module, getattr(stmt, "name", None)))
    return [(module, line, name) for module, source in sources.items()
            for line, name in definitions(source)
            if not name.startswith("_") and not read[module, name] - {(module, name)}]


@functools.cache
def package_unread():
    """(module, name) for each public definition of the package that no other
    top-level statement reads."""
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    return frozenset((module, name) for module, _, name in unread_public(sources))


@functools.cache
def traced():
    """``module.function`` for each function in ``perfbench/tracing.py``'s ``LAYERS``."""
    for stmt in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        if isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "LAYERS":
            layers = ast.literal_eval(stmt.value)
            return frozenset(f"{layer}.{name}" for layer, names in layers.items() for name in names)
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def test_scan_finds_an_unread_public_definition():
    # a definition's reading itself does not count; a module attribute or a table does
    sources = {"a": ("def used():\n    pass\n"
                     "def recursive():\n    return recursive()\n"
                     "class Alone:\n    pass\n"
                     "def _private():\n    pass\n"
                     "def attribute():\n    pass\n"
                     "TABLE = {'x': used}\n"),
               "b": ("from . import a as mod\n"
                     "from .a import _private\n"
                     "def reads():\n    return mod.attribute\n")}
    assert unread_public(sources) == [("a", 3, "recursive"), ("a", 5, "Alone"),
                                      ("b", 3, "reads")]


def test_scan_reads_a_method_as_no_definition():
    sources = {"assignments": "def project(rows, names):\n    pass\n",
               "lowerbound": ("from . import assignments\n"
                              "def certify(a, names):\n    return a.project(names)\n"
                              "VERBS = [certify]\n")}
    assert unread_public(sources) == [("assignments", 1, "project")]


def test_scan_judges_namesakes_apart():
    # each module's validate is read only through its own binding
    sources = {"diagrams": "def validate(b):\n    pass\n",
               "verbs": ("def validate(args):\n    pass\n"
                         "def evaluate(args):\n    pass\n"),
               "cnf": "def evaluate(phi):\n    pass\n",
               "lowerbound": ("from . import verbs\n"
                              "from .diagrams import validate as check\n"
                              "def certify(b):\n    return check(b), verbs.evaluate(b)\n"
                              "VERBS = [certify]\n")}
    assert unread_public(sources) == [("verbs", 1, "validate"), ("cnf", 1, "evaluate")]


@pytest.mark.parametrize("name", ["sink", "decision", "conj"])
def test_a_function_named_like_a_builder_method_is_unread(name):
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    sources["diagrams"] += f"\n\ndef {name}(*args):\n    return args\n"
    line = sources["diagrams"].count("\n") - 1
    assert ("diagrams", line, name) in unread_public(sources)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_public_definition(path):
    unread = sorted(name for module, name in package_unread() if module == path.stem
                    and f"{module}.{name}" not in traced() | UNREAD.keys())
    assert unread == [], (f"{path.name} defines public names that no other definition reads, "
                          f"that perfbench does not trace and that UNREAD gives no reason for")


@pytest.mark.parametrize("entry", sorted(UNREAD))
def test_unread_entries_are_still_unread(entry):
    # an entry whose name is gone, is traced or has found a reader leaves the list
    module, name = entry.split(".")
    assert (module, name) in package_unread() and entry not in traced()


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
