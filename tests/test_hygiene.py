"""Every module of the package uses each name it imports.

The package's __init__.py re-exports what it imports and is not scanned;
`from __future__` imports are directives, not names."""

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
