"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ratwp"

# The names the package exports, in sorted order: a name joins or leaves
# the public surface only by an edit here.
PUBLIC_NAMES = (
    "Alphabet", "EPSILON", "IdealData", "InputError",
    "MultiplicationTable", "NfaTransition", "OneTapeAutomaton", "Oracle",
    "PAD", "Presentation", "ProductGenerators", "PumpDecomposition",
    "RelationSchema", "Report", "Transition", "TwoTapeAutomaton",
    "add_generator", "adjoin_identity", "adjoin_zero", "as_word",
    "build_oracle", "builtin", "builtin_presentation", "cayley_wp_sync",
    "compose", "congruence_check", "cross_product", "cross_section",
    "determinize", "dumps_fsa", "eliminate_silent_steps",
    "enumerate_accepted", "equivalence_check", "export_dot", "fix_tape",
    "free_product", "free_wp", "ideal_extension", "intersect_rectangle",
    "load_fsa", "load_ideal", "load_sgp", "load_tbl", "loads_fsa",
    "loads_sgp", "monoid_from_semigroup_wp", "product_with_finite",
    "pump_check", "pump_decompose", "pump_refute", "pumping_constant",
    "remove_generator", "save_fsa", "substitution_relation", "swap_tapes",
    "sync_to_async", "table_oracle", "trim", "union",
    "validate_cross_section", "verify", "zero_union",
)


def imported_names(tree):
    """The names a module's syntax tree imports, `from __future__` imports
    aside."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported


def unused_imports(source):
    """The names a module imports and never reads, `from __future__`
    imports aside."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported_names(tree) - used)


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


def test_public_names_are_pinned():
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    assert tuple(sorted(imported_names(tree))) == PUBLIC_NAMES


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


def top_level_users(source, name):
    """The module-level statements of a module source that name `name`, as
    a name: a function or class by its name, an assignment by its targets'
    names, an import as "import"."""
    users = set()
    for top in ast.parse(source).body:
        if isinstance(top, (ast.Import, ast.ImportFrom)):
            if any((a.asname or a.name) == name for a in top.names):
                users.add("import")
        elif any(getattr(sub, "id", None) == name for sub in ast.walk(top)):
            if isinstance(top, ast.Assign):
                users.update(t.id for t in top.targets)
            else:
                users.add(getattr(top, "name", type(top).__name__))
    return users


def test_top_level_users_are_found():
    source = ("from m import P, Q\nP2 = P\nX = 1\n"
              "def f():\n    return P\nclass C:\n    y = Q\n")
    assert top_level_users(source, "P") == {"import", "P2", "f"}
    assert top_level_users(source, "Q") == {"import", "C"}


def test_only_the_text_formats_name_the_pad_token():
    # a sync automaton's pad is epsilon, and '#' only how a file writes
    # it: past the constant and Alphabet's reserved-token check, only
    # fileio names the token (the package re-exports it)
    users = {p.name: top_level_users(p.read_text(encoding="utf-8"), "PAD")
             for p in SOURCE.glob("*.py")}
    assert {name for name, found in users.items() if found} == {
        "__init__.py", "automata.py", "fileio.py"}
    assert users["__init__.py"] == {"import"}
    assert users["automata.py"] == {"PAD", "Alphabet"}
