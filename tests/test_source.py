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


def _names_in(node, skip):
    """The names and attribute names read under node, apart from skip."""
    for sub in ast.walk(node):
        name = getattr(sub, "id", None) or getattr(sub, "attr", None)
        if name is not None and name != skip:
            yield name


def unused_private_names(sources):
    """The module-level private functions and classes of the given module
    sources that none of them names, as a name or an attribute, outside
    the definition itself."""
    defined, named = set(), set()
    for source in sources:
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and own.startswith("_") and not own.startswith("__")):
                defined.add(own)
            named.update(_names_in(top, own))
    return sorted(defined - named)


def test_unused_private_names_are_found():
    sources = ["def _used():\n    return 1\n"
               "def _recursive(n):\n    return _recursive(n - 1)\n"
               "class _Unused:\n    pass\n"
               "def public():\n    return _used()\n",
               "import m\nx = m._Attr\nclass _Attr:\n    pass\n"]
    assert unused_private_names(sources) == ["_Unused", "_recursive"]


def test_no_unused_private_names():
    sources = [p.read_text(encoding="utf-8") for p in SOURCE.glob("*.py")]
    assert unused_private_names(sources) == []
