"""No module of the package or its tools imports a name it never uses.

Stdlib only (``ast``): the repository runs no linter, and deleting code is
where dead imports appear."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "stageflow").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and reads nowhere else, in import
    order. A package's ``__all__`` counts as a use of the names it lists;
    ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source,unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb\n", ["c"]),
    ("from __future__ import annotations\n", []),
    ("from .errors import E\n__all__ = ['E']\n", []),
    ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
])
def test_unused_imports_reads_names_as_python_binds_them(source, unused):
    assert unused_imports(source) == unused
