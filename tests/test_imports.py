"""Every module-level import of the library is used by its module, every
module-level private name is read somewhere in the package, and every
public name is read by the package, a demo or the benchmark, or is listed
in README's Layout section."""

import ast
import re
from pathlib import Path

import pytest

import krawtchouk

PACKAGE = Path(krawtchouk.__file__).parent
# the package's own imports are its exports (``__all__`` lists them)
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


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


def private_names(source: str) -> list:
    """Names with one leading underscore bound by a module-level def, class
    or assignment (dunders such as ``__all__`` are Python's, not ours)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.endswith("__")]


def public_names(source: str, module: str) -> list:
    """(qualified name, name) for each public module-level def, class or
    assignment, as ``module.name``, and each public method, as
    ``Class.method``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((f"{module}.{node.name}", node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [(f"{module}.{t.id}", t.id) for t in targets
                      if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [(f"{node.name}.{f.name}", f.name) for f in node.body
                      if isinstance(f, ast.FunctionDef)]
    return [(qualified, name) for qualified, name in names
            if not name.startswith("_")]


def layout_section(readme: str) -> str:
    """The text of README's "## Layout" section."""
    return readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]


def unlisted_unread(public, read: set, layout: str) -> list:
    """The qualified public names that no source reads (by name, so any
    read of the same name counts) and that ``layout`` does not list."""
    return [qualified for qualified, name in public if name not in read
            and not re.search(rf"(?<![\w.]){re.escape(qualified)}(?!\w)",
                              layout)]


def read_names(sources) -> set:
    """Every name that the sources load, import or read as an attribute."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "from dataclasses import dataclass\n"
              "import os.path\n"
              "from math import comb as choose, gcd\n"
              "print(os.path.sep, choose(4, 2))\n")
    assert unused_imports(source) == ["dataclass", "gcd"]


def test_unread_private_names_are_found():
    rings = ("_TOL = 1e-9\n"
             "_new = object.__new__\n"
             "__all__ = []\n"
             "def _near_eq(x, y):\n"
             "    return abs(x - y) <= _TOL\n"
             "class _Lowest:\n"
             "    _units = ()\n"
             "def _frac(x):\n"
             "    return x\n")
    other = ("from .rings import _Lowest\n"
             "import rings\n"
             "print(rings._new(object), _frac)\n")
    read = read_names([rings, other])
    assert [name for name in private_names(rings) if name not in read] == [
        "_near_eq"]


def test_unread_unlisted_public_names_are_found():
    source = ("LIMIT = 3\n"
              "_cache = {}\n"
              "def build(n):\n"
              "    return n\n"
              "def spare(n):\n"
              "    return n\n"
              "class Grid:\n"
              "    def __init__(self):\n"
              "        self.cells = []\n"
              "    def width(self):\n"
              "        return LIMIT\n"
              "    def of(self):\n"
              "        return self\n"
              "    def unused(self):\n"
              "        return self\n")
    other = "from .grid import Grid, build\nprint(build(Grid().width()))\n"
    read = read_names([source, other])
    public = public_names(source, "grid")
    assert [q for q, _ in public] == [
        "grid.LIMIT", "grid.build", "grid.spare", "grid.Grid", "Grid.width",
        "Grid.of", "Grid.unused"]
    layout = "grid.py  builders; grid.spare and Grid.of for callers\n"
    assert unlisted_unread(public, read, layout) == ["Grid.unused"]
    # a listing must name the method of its class, not a longer name
    assert unlisted_unread(public, read, "MyGrid.of, Grid.offset") == [
        "grid.spare", "Grid.of", "Grid.unused"]
    readme = "# x\n\n## Layout\n\ngrid.spare\n\n## Performance\n\nGrid.of\n"
    assert layout_section(readme) == "\ngrid.spare\n"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.fixture(scope="module")
def package_reads():
    return read_names(p.read_text(encoding="utf-8")
                      for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_private_names_are_read(path, package_reads):
    assert [name for name in private_names(path.read_text(encoding="utf-8"))
            if name not in package_reads] == []


def test_public_names_are_read_or_listed_in_layout():
    sources = [p for folder in (PACKAGE, ROOT / "demos", ROOT / "perfbench")
               for p in folder.glob("*.py")]
    read = read_names(p.read_text(encoding="utf-8") for p in sources)
    layout = layout_section((ROOT / "README.md").read_text(encoding="utf-8"))
    public = [entry for path in MODULES
              for entry in public_names(path.read_text(encoding="utf-8"),
                                        path.stem)]
    assert unlisted_unread(public, read, layout) == []
