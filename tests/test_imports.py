"""No module of the package imports a name that it never reads."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wlhom"


def unread_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports, `from __future__` aside, that no
    expression of the module reads; a package's `__all__` counts as reading
    the names it lists."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_import(path):
    assert unread_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unread_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, sys as system\nfrom .graphs import gather, Graph\n"
                     "__all__ = ['Graph']\nprint(os.sep)\n")
    assert unread_imports(tree) == ["system", "gather"]
