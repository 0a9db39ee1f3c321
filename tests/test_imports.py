"""Every name a module of the package imports is used in that module, and
every attribute the package stores is read somewhere in the package.

No linter is a dependency, so the checks walk the modules' syntax trees.
For imports, the package's `__init__` is exempt, since it imports to
re-export, and so are `__future__` imports."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spannerlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` binds by an import and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain `a.b` starts at the Name `a`
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_a_leftover_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .graphs import apsp, components as comps, quotient\n"
        "def f(g):\n"
        "    return quotient(g, apsp(g)), os.path\n"
    )
    assert unused_imports(source) == ["comps"]


def unread_attributes(sources: list[str]) -> list[str]:
    """The attribute names `sources` store, on `self` or as a keyword of a
    `_set` call (`graphs.Frozen`), and never read as an attribute, sorted."""
    stored, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    stored.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_set":
                stored.update(k.arg for k in node.keywords if k.arg)
    return sorted(stored - read)


def test_package_reads_every_attribute_it_stores():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_attributes(sources) == []


def test_an_unread_attribute_is_found():
    source = (
        "class A:\n"
        "    def __init__(self, g):\n"
        "        self.g, self.kept = g, 1\n"
        "        self.count: int = 0\n"
        "        self._set(n=g.n, scale=1)\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
        "        return self.g, self.count\n"
    )
    assert unread_attributes([source]) == ["kept", "scale"]
