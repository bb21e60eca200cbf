"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ratwp"


def unused_imports(source):
    """The names a module imports and never reads, `from __future__`
    imports aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from typing import Iterator, Optional as Opt\n"
              "x: Opt[int] = sys.maxsize\n")
    assert unused_imports(source) == ["Iterator", "os"]


@pytest.mark.parametrize("path", sorted(
    p.name for p in SOURCE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SOURCE / path).read_text(encoding="utf-8")) == []
