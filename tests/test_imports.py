"""Every module-level import in the library is used.

The package `__init__.py` is left out: its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

import p7c4

MODULES = sorted(p for p in Path(p7c4.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from .graphs import Graph, _bits\n\ndef f(g: Graph):\n    return g\n"
    assert _unused_imports(source) == ["_bits (line 1)"]
