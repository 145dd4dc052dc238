"""Every module of the package uses each name it imports, and every private
name the package defines is read somewhere in it.

The package's __init__.py re-exports what it imports and is not scanned
for imports; `from __future__` imports are directives, not names."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "multiphase"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement anywhere in source and never read."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_scanner_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport scipy.sparse as sp\nimport scipy.sparse.linalg\n"
              "from json import dumps, loads as ld\n"
              "def f():\n    from math import pi\n    return scipy.sparse, ld\n")
    assert unused_imports(source) == ["dumps", "os", "pi", "sp"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def private_definitions(source):
    """Private names bound at module level by an assignment, a def or a
    class, and private methods of module-level classes."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        if isinstance(node, ast.ClassDef):
            defined |= {f.name for f in node.body
                        if isinstance(f, ast.FunctionDef)}
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        defined |= {n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)}
    return {n for n in defined if n.startswith("_") and not n.startswith("__")}


def reads(source):
    """Names read in source, bare or as an attribute."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
    return out


def test_scanner_finds_orphaned_private_names():
    source = ("_A, _B = 1, 2\n_C: int = _A\n__all__ = []\n"
              "def _f():\n    return 0\n"
              "class _K:\n    def __init__(self):\n        self._g()\n"
              "    def _g(self):\n        pass\n    def _h(self):\n        pass\n")
    assert private_definitions(source) == {"_A", "_B", "_C", "_f", "_K", "_g", "_h"}
    assert sorted(private_definitions(source) - reads(source)) == [
        "_B", "_C", "_K", "_f", "_h"]


def test_no_orphaned_private_names():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    read = set().union(*map(reads, sources))
    defined = set().union(*map(private_definitions, sources))
    assert sorted(defined - read) == []


def private_attributes(source):
    """Private attributes assigned on self: self._x = ..., tuple targets
    included."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"
            and n.attr.startswith("_") and not n.attr.startswith("__")}


def test_scanner_finds_orphaned_private_attributes():
    source = ("class K:\n    def __init__(self, other):\n"
              "        self._a, self._b = 1, 2\n        self._c = {}\n"
              "        self._d = self.__e = self.f = 0\n        other._g = 3\n"
              "    def get(self):\n        self._c[0] = self._a\n")
    assert private_attributes(source) == {"_a", "_b", "_c", "_d"}
    assert sorted(private_attributes(source) - reads(source)) == ["_b", "_d"]


def test_no_orphaned_private_attributes():
    """A private attribute that the package assigns is read in the package,
    not only by the tests."""
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    read = set().union(*map(reads, sources))
    assigned = set().union(*map(private_attributes, sources))
    assert sorted(assigned - read) == []
