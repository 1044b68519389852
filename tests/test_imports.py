"""Every module-level import of the library is used by its module, every
module-level private name is read somewhere in the package, and every
public name is read by the package, a demo or the benchmark, or is listed
in README's Layout section.  A public method counts as read only through
an attribute, so a local variable of the same name hides nothing, and the
re-exports of ``__init__.py`` read nothing.  Every function reads each of
its parameters other than ``self``, ``cls`` and names that start with
``_``.  Only the three exactness guards raise ``AssertionError``: a
construction returns its value and a check returns its report.  In
``verify.py`` only ``run_suites`` reads ``n_max`` and only ``SUITES``
reads an order cap, and README's table of suite parts is ``SUITES``.
Importing the package loads none of the heavy standard modules it does
not need."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import krawtchouk
from krawtchouk import verify

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
    """(qualified name, name, is_method) for each public module-level def,
    class or assignment, as ``module.name``, and each public method, as
    ``Class.method``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((f"{module}.{node.name}", node.name, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [(f"{module}.{t.id}", t.id, False) for t in targets
                      if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [(f"{node.name}.{f.name}", f.name, True)
                      for f in node.body if isinstance(f, ast.FunctionDef)]
    return [entry for entry in names if not entry[1].startswith("_")]


def unused_parameters(source: str) -> list:
    """(function, parameter) for each parameter of a def or lambda that its
    body never reads.  ``self``, ``cls`` and names that start with ``_``
    are exempt."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        named = args.posonlyargs + args.args + args.kwonlyargs
        params = [a.arg for a in named + [args.vararg, args.kwarg] if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for statement in body for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [(getattr(node, "name", "<lambda>"), name) for name in params
                   if name not in read and name not in ("self", "cls")
                   and not name.startswith("_")]
    return unused


def assertion_raises(source: str, module: str) -> list:
    """The qualified function, as ``module.Class.method``, of each
    ``raise AssertionError`` and each ``assert`` statement, in source
    order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            exc = getattr(child, "exc", None)
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(child, ast.Assert) or (
                    isinstance(child, ast.Raise)
                    and isinstance(exc, ast.Name)
                    and exc.id == "AssertionError"):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def readme_section(readme: str, heading: str) -> str:
    """The text of README's "## <heading>" section."""
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def suite_parts(section: str) -> dict:
    """{suite: [(first, cap), ...]} from the rows of a markdown table whose
    columns are suite, part, first order and cap ("none" or a number)."""
    parts = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 4 and cells[2].isdigit():
            cap = None if cells[3] == "none" else int(cells[3].split()[0])
            parts.setdefault(cells[0], []).append((int(cells[2]), cap))
    return parts


def readers(source: str, pattern: str) -> dict:
    """{name: the module-level defs and assignments that read it} for each
    name that ``pattern`` matches in full, read or taken as a parameter."""
    found = {}
    for statement in ast.parse(source).body:
        where = getattr(statement, "name", None) or ",".join(
            t.id for t in getattr(statement, "targets", ())
            if isinstance(t, ast.Name))
        for node in ast.walk(statement):
            name = (node.id if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    else node.arg if isinstance(node, ast.arg) else None)
            if name and re.fullmatch(pattern, name):
                found.setdefault(name, set()).add(where)
    return found


def unlisted_unread(public, reads, layout: str) -> list:
    """The qualified public names that no source reads and that ``layout``
    does not list.

    ``reads`` is the pair of :func:`read_names`: a method is read only as
    an attribute, a module-level name by any load, import or attribute.
    """
    names, attributes = reads
    return [qualified for qualified, name, is_method in public
            if name not in (attributes if is_method else names)
            and not re.search(rf"(?<![\w.]){re.escape(qualified)}(?!\w)",
                              layout)]


def read_names(sources) -> tuple:
    """(names, attributes): every name that the sources load, import or
    read as an attribute, and the attribute reads alone."""
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names | attributes, attributes


def public_reads(files) -> tuple:
    """:func:`read_names` of the (file name, source) pairs other than
    ``__init__.py``, whose imports re-export names and read none."""
    return read_names(source for name, source in files
                      if name != "__init__.py")


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
    read, _ = read_names([rings, other])
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
              "        return self\n"
              "    def hidden(self):\n"
              "        return self\n")
    other = ("from .grid import Grid, build\n"
             "hidden = build(Grid().width())\n"
             "print(hidden)\n")
    # __init__.py re-exports spare: an import there reads nothing
    package = "from .grid import Grid, build, spare\n"
    reads = public_reads([("grid.py", source), ("other.py", other),
                          ("__init__.py", package)])
    public = public_names(source, "grid")
    assert [q for q, _, _ in public] == [
        "grid.LIMIT", "grid.build", "grid.spare", "grid.Grid", "Grid.width",
        "Grid.of", "Grid.unused", "Grid.hidden"]
    layout = "grid.py  builders; grid.spare and Grid.of for callers\n"
    # the local variable ``hidden`` is no read of the method Grid.hidden
    assert unlisted_unread(public, reads, layout) == [
        "Grid.unused", "Grid.hidden"]
    # a listing must name the method of its class, not a longer name
    assert unlisted_unread(public, reads, "MyGrid.of, Grid.offset") == [
        "grid.spare", "Grid.of", "Grid.unused", "Grid.hidden"]
    # read from another module, a re-export and a method call count
    reads = public_reads([("other.py", package + "Grid().hidden()\n")])
    assert unlisted_unread(public, reads, "") == [
        "grid.LIMIT", "Grid.width", "Grid.of", "Grid.unused"]
    readme = "# x\n\n## Layout\n\ngrid.spare\n\n## Performance\n\nGrid.of\n"
    assert readme_section(readme, "Layout") == "\ngrid.spare\n"


def test_unused_parameters_are_found():
    source = ("def f(a, b, _c, *args, d=1, **kw):\n"
              "    return a + d\n"
              "class Grid:\n"
              "    def at(self, x):\n"
              "        def inner():\n"
              "            return x\n"
              "        return inner\n"
              "    @classmethod\n"
              "    def make(cls, y):\n"
              "        y = 2\n"
              "        return cls\n"
              "g = lambda u, v: u\n")
    # a nested function's read counts; an assignment is no read
    assert unused_parameters(source) == [
        ("f", "b"), ("f", "args"), ("f", "kw"), ("make", "y"),
        ("<lambda>", "v")]


def test_assertion_raises_are_found():
    source = ("def f(x):\n"
              "    if x:\n"
              "        raise AssertionError('remainder')\n"
              "    raise ValueError(x)\n"
              "class Lanes:\n"
              "    def unpack(self):\n"
              "        def inner():\n"
              "            raise AssertionError\n"
              "        assert self\n"
              "        return inner\n")
    assert assertion_raises(source, "lanes") == [
        "lanes.f", "lanes.Lanes.unpack.inner", "lanes.Lanes.unpack"]


# the guards of exactness: a division by 1+t, a halving and a lane decoding
# that must leave no remainder, where no identity check could report one
EXACTNESS_GUARDS = ["core._next_genfunc_column", "hadamard.pyramid_plane",
                    "lanes.Lanes.unpack"]


def test_only_the_exactness_guards_raise_assertion_error():
    assert [scope for path in MODULES
            for scope in assertion_raises(path.read_text(encoding="utf-8"),
                                          path.stem)] == EXACTNESS_GUARDS


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_parameter(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


@pytest.fixture(scope="module")
def package_reads():
    read, _ = read_names(p.read_text(encoding="utf-8")
                         for p in PACKAGE.glob("*.py"))
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_private_names_are_read(path, package_reads):
    assert [name for name in private_names(path.read_text(encoding="utf-8"))
            if name not in package_reads] == []


def test_public_names_are_read_or_listed_in_layout():
    sources = [p for folder in (PACKAGE, ROOT / "demos", ROOT / "perfbench")
               for p in folder.glob("*.py")]
    reads = public_reads((p.name, p.read_text(encoding="utf-8"))
                         for p in sources)
    layout = readme_section((ROOT / "README.md").read_text(encoding="utf-8"),
                            "Layout")
    public = [entry for path in MODULES
              for entry in public_names(path.read_text(encoding="utf-8"),
                                        path.stem)]
    assert unlisted_unread(public, reads, layout) == []


def test_suite_parts_and_readers_are_found():
    table = ("| suite | part | first | cap |\n|---|---|---|---|\n"
             "| a | one | 0 | none |\n| b | two | 1 | 8 (`CAP`) |\n"
             "| a | three | 2 | 3 |\n")
    assert suite_parts(table) == {"a": [(0, None), (2, 3)], "b": [(1, 8)]}
    source = ("ROW_CAP = 3\n"
              "def part(orders, n_max=ROW_CAP):\n"
              "    return orders\n"
              "def run(n_max):\n"
              "    return min(n_max, ROW_CAP)\n"
              "SUITES = {'a': (0, ROW_CAP)}\n")
    # a parameter counts as a read; the assignment of ROW_CAP does not
    assert readers(source, r"n_max|\w+_CAP") == {
        "n_max": {"part", "run"}, "ROW_CAP": {"part", "run", "SUITES"}}


def test_only_run_suites_reads_n_max_and_only_suites_reads_a_cap():
    found = readers(Path(verify.__file__).read_text(encoding="utf-8"),
                    r"n_max|\w+_CAP")
    assert found == {"n_max": {"run_suites"}, **{
        cap: {"SUITES"} for cap in ("PATH_CAP", "SYMBOLIC_CAP",
                                    "SPECTRAL_CAP", "REDUCTION_CAP",
                                    "KRON_CAP")}}


def test_readme_lists_the_orders_of_each_suite_part():
    section = readme_section((ROOT / "README.md").read_text(encoding="utf-8"),
                             "Command line")
    assert suite_parts(section) == {
        name: [(first, cap) for first, cap, _ in parts]
        for name, parts in verify.SUITES.items()}


# ``dataclasses`` and what it drags in, ``typing``, ``json`` and
# ``pathlib``, which only serializing and the CLI need, and ``random``,
# which only a verify run draws from
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "json",
         "pathlib", "random"}


@pytest.mark.parametrize("module, needed", [
    ("krawtchouk", set()),
    ("krawtchouk.cli", {"argparse", "json"}),
], ids=["krawtchouk", "krawtchouk.cli"])
def test_import_loads_no_heavy_standard_module(module, needed):
    # -S: site-packages .pth files may preload some of these and hide a
    # regression; the probe sees only what the import itself loads
    probe = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
             f"import {module}; print(sorted(sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(ast.literal_eval(done.stdout))
    assert module in loaded
    assert sorted(loaded & (HEAVY - needed)) == []
    assert needed <= loaded
