"""No dead surface: every top-level function and class of the package is
named by package code other than its own definition, and every defaulted
parameter of a top-level function or method is passed by some package call.

A name counts as used when another part of `src/rcfvis` loads it, reads it
as an attribute or imports it (the package `__init__` re-exports its public
API this way).  Code that only tests need belongs in the tests.

A parameter counts as passed when a call in `src/rcfvis`, outside the
function's own body, names the function (a method by its attribute name, a
class by its name for `__init__`) and gives the parameter by keyword, by
position, or through `*args` / `**kwargs`.  An instance call does not name
the method it runs, so any call may pass a parameter of `__call__`.  Calls
are matched by name alone, so a like-named numpy method can keep a parameter
alive: the check finds dead parameters, it does not prove one is live.
Nested functions are not checked: the tape closures bind their inputs as
default values that no caller is meant to pass.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcfvis"

# name -> why it may stay unreferenced by package code
ALLOWED = {
    "set_strict_finite": "the tests' switch for raising on non-finite tape values",
}

# "module.qualname(parameter)" -> why no package call passes it
ALLOWED_PARAMETERS = {
    "cli.main(argv)": "the tests drive the entry point with an argument list",
    "tensor.grad_check(eps)": "the tests' gradient checks set the finite-difference step",
    "tensor.Tensor.backward(seed)": "the tests' oracles backpropagate a non-scalar output from a seed",
    "tensor.Tensor.mean(keepdims)": "the tests' oracles take means that keep the reduced axes",
}


def _names(node: ast.AST):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.asname or n.name


def _trees():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def surface_report():
    """(definitions, users): top-level (module, name) pairs, and for every
    identifier the set of (module, top-level statement) places naming it."""
    definitions = []
    users: dict[str, set] = {}
    for module, tree in _trees():
        for index, top in enumerate(tree.body):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, top.name, index))
            for name in _names(top):
                users.setdefault(name, set()).add((module, index))
    return definitions, users


def _functions(tree: ast.Module):
    """(qualname, def node, callee names or None for any, takes self) of every
    top-level function and every method of a top-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for top in tree.body:
        if isinstance(top, funcs):
            yield top.name, top, {top.name}, False
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if not isinstance(node, funcs):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                callees = {top.name} if node.name == "__init__" else None if node.name == "__call__" else {node.name}
                yield f"{top.name}.{node.name}", node, callees, not static


def _defaulted(fn: ast.FunctionDef):
    """(position or None for keyword-only, name) of each parameter with a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i, arg.arg
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call: ast.Call, position, name: str) -> bool:
    if any(isinstance(x, ast.Starred) for x in call.args) or any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def parameter_report():
    """(defaulted, unpassed): every "module.qualname(parameter)" with a default,
    and those of them that no package call passes."""
    trees = _trees()
    calls = []
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                calls.append((f.id if isinstance(f, ast.Name) else getattr(f, "attr", None), node))
    defaulted, unpassed = [], []
    for module, tree in trees:
        for qualname, fn, callees, takes_self in _functions(tree):
            own = {id(n) for n in ast.walk(fn)}
            candidates = [c for name, c in calls if id(c) not in own and (callees is None or name in callees)]
            for position, name in _defaulted(fn):
                key = f"{module}.{qualname}({name})"
                defaulted.append(key)
                index = None if position is None else position - takes_self
                if not any(_passes(c, index, name) for c in candidates):
                    unpassed.append(key)
    return defaulted, unpassed


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


def test_every_defaulted_parameter_is_passed_by_the_package():
    defaulted, unpassed = parameter_report()
    assert len(defaulted) > 30  # the scan found the parameters
    dead = [key for key in unpassed if key not in ALLOWED_PARAMETERS]
    assert not dead, f"passed by no package call: {', '.join(dead)}"


def test_parameter_allowlist_entries_exist_and_are_unpassed():
    defaulted, unpassed = parameter_report()
    for key, reason in ALLOWED_PARAMETERS.items():
        assert reason
        assert key in defaulted, f"{key} is gone; drop it from the allowlist"
        assert key in unpassed, f"{key} is passed now; drop it from the allowlist"
