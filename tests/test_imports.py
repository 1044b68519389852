"""Every module-level import of the library is used by its module."""

import ast
from pathlib import Path

import pytest

import krawtchouk

PACKAGE = Path(krawtchouk.__file__).parent
# the package's own imports are its exports (``__all__`` lists them)
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by a module-level import that no name in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "from dataclasses import dataclass\n"
              "import os.path\n"
              "from math import comb as choose, gcd\n"
              "print(os.path.sep, choose(4, 2))\n")
    assert unused_imports(source) == ["dataclass", "gcd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
