"""The intra-package import graph of langmix: module-level only, and acyclic."""

import ast
from pathlib import Path

import langmix

PACKAGE = Path(langmix.__file__).resolve().parent
MODULES = {p.stem: p for p in sorted(PACKAGE.glob("*.py"))}


def _intra_imports(tree: ast.Module):
    """(node, imported module) for every import of a langmix module in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node, node.module.split(".")[0]
            else:  # from . import name: a module, or a name from __init__
                for alias in node.names:
                    yield node, alias.name if alias.name in MODULES else "__init__"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("langmix."):
            yield node, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("langmix."):
                    yield node, alias.name.split(".")[1]


def _scan(name: str, source: str):
    """Modules imported by one module, and its imports that are not at module level."""
    tree = ast.parse(source)
    top = set(tree.body)
    targets, local = set(), []
    for node, target in _intra_imports(tree):
        targets.add(target)
        if node not in top:
            local.append(f"{name}.py:{node.lineno} imports {target} inside a function")
    return targets, local


def _graph():
    graph, local = {}, []
    for name, path in MODULES.items():
        graph[name], found = _scan(name, path.read_text())
        local += found
    return graph, local


def _find_cycle(graph):
    """One import cycle as a list of module names, or None."""
    state = {}

    def visit(node, stack):
        state[node] = "open"
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt, stack)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node, [])
            if cycle:
                return cycle
    return None


def test_no_function_local_package_imports():
    _, local = _graph()
    assert not local, "; ".join(local)


def test_import_graph_is_acyclic():
    graph, _ = _graph()
    assert {"model", "simulate"} <= graph["harness"]  # the scan sees the package
    cycle = _find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)

