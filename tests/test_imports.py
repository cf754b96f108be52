"""Every top-level import in the package is used by the module that makes it.

A stdlib ``ast`` scan: a module's top-level ``import`` and ``from ... import``
statements bind names, and each bound name must be read somewhere in the
module. ``__init__.py`` files are skipped, since their imports are the
package's re-exports, and so are ``from __future__`` imports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ddlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
