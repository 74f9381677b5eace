"""Every imported name is used.

A stdlib-only AST scan: a module's imports are the names its import
statements bind; a name counts as used when it appears as an
identifier anywhere in the module or in its `__all__`.  Package
`__init__.py` files (re-exports) and `from __future__` imports are
skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in [*(ROOT / "src" / "dbarkit").glob("*.py"),
                           *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_scan_flags_an_unused_import():
    src = "import os\nimport sys as system\nfrom math import pi, tau\nprint(tau, system)\n"
    assert unused_imports(src) == [(1, "os"), (3, "pi")]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from re import sub\n__all__ = ['sub']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
