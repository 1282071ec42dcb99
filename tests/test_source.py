"""Checks on the package source itself, read with ``ast`` and not imported."""

import ast

import pytest

from test_notebooks import ROOT

SOURCES = sorted(p.name for p in (ROOT / "src" / "mmfusion").glob("*.py")
                 if p.name != "__init__.py")


def unread_imports(source):
    """The names a module imports at module level and never reads, except
    those whose import statement carries ``# noqa: F401`` (a re-export)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_all_modules_found():
    assert "tensor.py" in SOURCES and "cli.py" in SOURCES


@pytest.mark.parametrize("name", SOURCES)
def test_no_module_imports_a_name_it_does_not_read(name):
    assert unread_imports((ROOT / "src" / "mmfusion" / name).read_text()) == []


@pytest.mark.parametrize("source, unread", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from x import a, b as c\nprint(a)\n", ["c"]),
    ("from x import a  # noqa: F401\n", []),
    ("from x import (a,\n               b)  # noqa: F401\n", []),
    ("from __future__ import annotations\n", []),
    ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
    ("import os\ndef f():\n    os = 1\n", ["os"]),
])
def test_unread_imports_oracle(source, unread):
    assert unread_imports(source) == unread
