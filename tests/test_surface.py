"""No dead surface that a trace cannot see: every top-level class of the
package is named by package code other than its own definition, every
attribute that a class's `__init__` writes and every field of a dataclass
is read by package code, and
every defaulted parameter of a top-level function or method is passed by
some package call.  Functions, methods and closures are checked by
`tests/test_reachability.py`, which fails on any that no CLI command runs.

A class counts as used when another part of `src/rcfvis` loads it, reads it
as an attribute or imports it (the package `__init__` re-exports its public
API this way).  Code that only tests need belongs in the tests.  Attributes
are matched by name alone, like parameters below.

A parameter counts as passed when a call in `src/rcfvis`, outside the
function's own body, names the function (a method by its attribute name, a
class by its name for `__init__`) and gives the parameter by keyword, by
position, or through `*args` / `**kwargs`.  An instance call does not name
the method it runs, so any call may pass a parameter of `__call__`.  Calls
are matched by name alone, so a like-named numpy method can keep a parameter
alive: the check finds dead parameters, it does not prove one is live.
Nested functions are not checked: the tape closures bind their inputs as
default values that no caller is meant to pass.

A dataclass with a single field is a pass-through type: it wraps one value
whose shape every caller already knows, so the value itself should travel.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcfvis"

# "module.Class.attribute" -> why no package code reads the attribute
ALLOWED_MEMBERS: dict[str, str] = {}

# "module.Class" -> why a one-field dataclass is more than a wrapper
ALLOWED_ONE_FIELD: dict[str, str] = {}

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
    """(definitions, users): top-level (module, class name) pairs, and for
    every identifier the set of (module, top-level statement) places naming it."""
    definitions = []
    users: dict[str, set] = {}
    for module, tree in _trees():
        for index, top in enumerate(tree.body):
            if isinstance(top, ast.ClassDef):
                definitions.append((module, top.name, index))
            for name in _names(top):
                users.setdefault(name, set()).add((module, index))
    return definitions, users


def _fields(cls: ast.ClassDef) -> list[str]:
    """The annotated fields of a class body, as a dataclass takes them."""
    return [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]


def _init_attributes(cls: ast.ClassDef):
    """The attributes that the `__init__` of a class writes on `self`."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for n in ast.walk(node):
                if (
                    isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                ):
                    yield n.attr


def member_report():
    """(members, unused): every "module.Class.attribute" that the `__init__`
    of a top-level class writes or that a top-level dataclass declares as a
    field, and those that no package code reads."""
    trees = _trees()
    read = set()
    for _, tree in trees:
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    members, unused = [], []
    for module, tree in trees:
        for top in tree.body:
            if not isinstance(top, ast.ClassDef):
                continue
            for attr in [*(_fields(top) if _is_dataclass(top) else ()), *_init_attributes(top)]:
                key = f"{module}.{top.name}.{attr}"
                members.append(key)
                if attr not in read:
                    unused.append(key)
    return members, unused


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_report():
    """(dataclasses, one_field): every top-level "module.Class" that is a
    dataclass, and those of them with exactly one field."""
    dataclasses, one_field = [], []
    for module, tree in _trees():
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and _is_dataclass(top):
                key = f"{module}.{top.name}"
                dataclasses.append(key)
                if len(_fields(top)) == 1:
                    one_field.append(key)
    return dataclasses, one_field


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


def test_every_class_is_used_by_the_package():
    definitions, users = surface_report()
    assert len(definitions) > 40  # the scan found the classes
    unused = [
        f"{module}.{name}" for module, name, index in definitions if not users.get(name, set()) - {(module, index)}
    ]
    assert unused == []


def test_every_init_attribute_is_read_by_the_package():
    members, unused = member_report()
    assert len(members) > 60  # the scan found the attributes
    dead = [key for key in unused if key not in ALLOWED_MEMBERS]
    assert not dead, f"read by no package code: {', '.join(dead)}"


def test_member_allowlist_entries_exist_and_are_unused():
    members, unused = member_report()
    for key, reason in ALLOWED_MEMBERS.items():
        assert reason
        assert key in members, f"{key} is gone; drop it from the allowlist"
        assert key in unused, f"{key} is used now; drop it from the allowlist"


def test_every_defaulted_parameter_is_passed_by_the_package():
    defaulted, unpassed = parameter_report()
    assert len(defaulted) > 25  # the scan found the parameters
    dead = [key for key in unpassed if key not in ALLOWED_PARAMETERS]
    assert not dead, f"passed by no package call: {', '.join(dead)}"


def test_parameter_allowlist_entries_exist_and_are_unpassed():
    defaulted, unpassed = parameter_report()
    for key, reason in ALLOWED_PARAMETERS.items():
        assert reason
        assert key in defaulted, f"{key} is gone; drop it from the allowlist"
        assert key in unpassed, f"{key} is passed now; drop it from the allowlist"


def test_no_dataclass_is_a_pass_through():
    dataclasses, one_field = dataclass_report()
    assert len(dataclasses) > 15  # the scan found the dataclasses
    wrappers = [key for key in one_field if key not in ALLOWED_ONE_FIELD]
    assert not wrappers, f"one-field dataclasses: {', '.join(wrappers)}"


def test_one_field_allowlist_entries_exist_and_have_one_field():
    _, one_field = dataclass_report()
    for key, reason in ALLOWED_ONE_FIELD.items():
        assert reason
        assert key in one_field, f"{key} is gone or has more fields; drop it from the allowlist"
