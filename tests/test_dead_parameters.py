"""Every parameter of a module-level langmix function is read, and every default is overridden.

A default that no call in src/, tests/ or bench/ overrides is a constant
dressed up as an option: it doubles the configurations to test without any
caller needing the second value.  The scan is syntactic: a call matches a
function by its bare or attribute name, so it can over-count callers (and
miss a dead parameter); it reports a live one as dead only when every caller
reaches the function under another name.  A parameter the function body
never reads makes every caller build a value that is thrown away.
"""

import ast
from pathlib import Path

import langmix

PACKAGE = Path(langmix.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
CALLER_DIRS = ("src", "tests", "bench")


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


def _calls():
    """name -> list of (positions passed, keywords passed); None means unbounded."""
    calls = {}
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                star = any(isinstance(a, ast.Starred) for a in node.args)
                n_pos = None if star else len(node.args)
                kws = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((n_pos, None if None in kws else kws))
    return calls


def _dead_parameters():
    calls = _calls()
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, params in _defaulted_parameters(ast.parse(path.read_text())):
            for pos, param in params:
                passed = any(
                    kws is None
                    or param in kws
                    or (pos is not None and (n_pos is None or n_pos > pos))
                    for n_pos, kws in calls.get(fn, ())
                )
                if not passed:
                    dead.append(f"{path.stem}.{fn}({param})")
    return dead


def test_scan_reads_definitions_and_calls():
    source = "def f(a, b=1, *, c=2, e):\n    pass\n\ndef _g(x=1):\n    pass\n\ndef _h(y):\n    pass\n"
    assert list(_defaulted_parameters(ast.parse(source))) == [("f", [(1, "b"), (None, "c")]), ("_g", [(0, "x")])]
    assert any({"n_paths", "seed"} <= (kws or set()) for _, kws in _calls()["integrate_sde"])
    source = "def k(a, b, *c, d, **e):\n    def inner():\n        return d\n    b = a + sum(c)\n    return inner\n"
    assert list(_unread_parameters(ast.parse(source))) == [("k", "b"), ("k", "e")]


def test_no_parameter_keeps_its_default_everywhere():
    dead = _dead_parameters()
    assert not dead, "defaulted parameters that no caller sets: " + ", ".join(dead)


def test_every_parameter_is_read():
    unread = [
        f"{path.stem}.{fn}({param})"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn, param in _unread_parameters(ast.parse(path.read_text()))
    ]
    assert not unread, "parameters their function never reads: " + ", ".join(unread)
