"""Every parameter of a module-level langmix function is read, and every default is an option.

A default that no call in src/, tests/ or bench/ overrides is a constant
dressed up as an option: it doubles the configurations to test without any
caller needing the second value.  So is a default that every call overrides
with one and the same literal: the default is never used, and the literal
is the only value the function ever sees.  The scans are syntactic: a call
matches a function by its bare or attribute name, so they can over-count
callers (and miss a dead parameter); they report a live one as dead only
when every caller reaches the function under another name.  A parameter the
function body never reads makes every caller build a value that is thrown
away.
"""

import ast
import functools
from pathlib import Path

import langmix

PACKAGE = Path(langmix.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
CALLER_DIRS = ("src", "tests", "bench")
UNKNOWN = object()  # an argument hidden behind *args or **kwargs


def _defaulted_parameters(tree: ast.Module):
    """(function, [(position or None, parameter)]) for module-level functions, private ones included."""
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        params += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if params:
            yield node.name, params


def _unread_parameters(tree: ast.Module):
    """(function, parameter) for module-level functions whose body never reads the parameter."""
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for a in params:
            if a.arg not in read:
                yield node.name, a.arg


def _package_trees():
    """Module name -> parsed source, for every module of the package."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


@functools.lru_cache(maxsize=None)
def _caller_trees():
    return tuple(ast.parse(path.read_text()) for folder in CALLER_DIRS for path in sorted((ROOT / folder).rglob("*.py")))


def _calls(trees):
    """Called name -> list of the ast.Call nodes that call it."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None:
                calls.setdefault(name, []).append(node)
    return calls


def _argument(call: ast.Call, pos, param):
    """The expression the call passes for the parameter, None if it passes none, or UNKNOWN."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    if any(k.arg is None for k in call.keywords):
        return UNKNOWN
    if pos is not None:
        for i, a in enumerate(call.args):
            if isinstance(a, ast.Starred):
                return UNKNOWN
            if i == pos:
                return a
    return None


def _passed_arguments(definitions, calls):
    """(module.function, parameter, [argument of each call]) for every defaulted parameter."""
    for stem, tree in definitions.items():
        for fn, params in _defaulted_parameters(tree):
            for pos, param in params:
                yield f"{stem}.{fn}", param, [_argument(c, pos, param) for c in calls.get(fn, ())]


def _dead_parameters(definitions, calls):
    return [f"{fn}({param})" for fn, param, passed in _passed_arguments(definitions, calls)
            if all(a is None for a in passed)]


def _literal(node):
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _constant_parameters(definitions, calls):
    """Defaulted parameters that every call sets, all to the same literal."""
    found = []
    for fn, param, passed in _passed_arguments(definitions, calls):
        if not passed or any(a is None or a is UNKNOWN for a in passed):
            continue
        values = {_literal(a) for a in passed}
        if len(values) == 1 and None not in values:
            found.append(f"{fn}({param}={values.pop()})")
    return found


def test_scan_reads_definitions_and_calls():
    source = "def f(a, b=1, *, c=2, e):\n    pass\n\ndef _g(x=1):\n    pass\n\ndef _h(y):\n    pass\n"
    assert list(_defaulted_parameters(ast.parse(source))) == [("f", [(1, "b"), (None, "c")]), ("_g", [(0, "x")])]
    assert any({"n_paths", "seed"} <= {k.arg for k in c.keywords} for c in _calls(_caller_trees())["integrate_sde"])
    source = "def k(a, b, *c, d, **e):\n    def inner():\n        return d\n    b = a + sum(c)\n    return inner\n"
    assert list(_unread_parameters(ast.parse(source))) == [("k", "b"), ("k", "e")]
    # b is always 2, by position or by name; c and d keep their defaults in
    # some call; x gets a name, not a literal; s is hidden behind **kw once
    source = (
        "def f(a, b=1, c='x', d=0.0):\n    pass\n\ndef g(x=1):\n    pass\n\ndef h(s='left'):\n    pass\n\n"
        "f(1, 2, 'y')\nf(0, b=2, c='z', d=1e-2)\nf(5, 2, d=0.01)\ng(x=y)\ng(x=3)\nh('right')\nh(**kw)\n"
    )
    tree = ast.parse(source)
    assert _constant_parameters({"m": tree}, _calls([tree])) == ["m.f(b=2)"]
    assert _dead_parameters({"m": tree}, _calls([tree])) == []


def test_no_parameter_keeps_its_default_everywhere():
    dead = _dead_parameters(_package_trees(), _calls(_caller_trees()))
    assert not dead, "defaulted parameters that no caller sets: " + ", ".join(dead)


def test_no_parameter_takes_one_literal_everywhere():
    constant = _constant_parameters(_package_trees(), _calls(_caller_trees()))
    assert not constant, "defaulted parameters that every caller sets to the same literal: " + ", ".join(constant)


def test_every_parameter_is_read():
    unread = [
        f"{stem}.{fn}({param})"
        for stem, tree in _package_trees().items()
        for fn, param in _unread_parameters(tree)
    ]
    assert not unread, "parameters their function never reads: " + ", ".join(unread)
