"""Every name a module of the package imports is used in that module.

No linter is a dependency, so the check walks each module's syntax tree.
The package's `__init__` is exempt, since it imports to re-export, and so
are `__future__` imports."""
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
