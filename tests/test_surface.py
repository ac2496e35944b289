"""No dead surface: every top-level function and class of the package is
named by package code other than its own definition.

A name counts as used when another part of `src/rcfvis` loads it, reads it
as an attribute or imports it (the package `__init__` re-exports its public
API this way).  Code that only tests need belongs in the tests.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcfvis"

# name -> why it may stay unreferenced by package code
ALLOWED = {
    "set_strict_finite": "the tests' switch for raising on non-finite tape values",
}


def _names(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.asname or n.name


def surface_report():
    """(definitions, users): top-level (module, name) pairs, and for every
    identifier the set of (module, top-level statement) places naming it."""
    definitions = []
    users: dict[str, set] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for index, top in enumerate(tree.body):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, top.name, index))
            for name in _names(top):
                users.setdefault(name, set()).add((path.stem, index))
    return definitions, users


def test_every_top_level_name_is_used_by_the_package():
    definitions, users = surface_report()
    assert len(definitions) > 50  # the scan found the package
    unused = [
        f"{module}.{name}"
        for module, name, index in definitions
        if not users.get(name, set()) - {(module, index)} and name not in ALLOWED
    ]
    assert unused == []


def test_allowlist_entries_exist_and_are_unused():
    definitions, users = surface_report()
    defined = {name: (module, index) for module, name, index in definitions}
    for name, reason in ALLOWED.items():
        assert reason
        assert name in defined, f"{name} is gone; drop it from the allowlist"
        assert not users.get(name, set()) - {defined[name]}, f"{name} is used now; drop it from the allowlist"
