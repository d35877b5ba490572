"""The import graph of langmix: intra-package imports module-level only and
acyclic, no scipy.stats anywhere, and no triangular solve."""

import ast
import os
import subprocess
import sys
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


def test_matrix_eq_does_not_import_gaussian_tv():
    # Sigma^{-1/2} lives with Sigma; the Gaussian-TV layer sits above the Lyapunov solver
    graph, _ = _graph()
    assert "gaussian_tv" not in graph["matrix_eq"]


def test_cutoff_imports_neither_harness_nor_simulate():
    # the cut-off curve is a library routine: files and ensembles stay in the harness
    graph, _ = _graph()
    assert "covflow" in graph["cutoff"]
    assert not {"harness", "simulate"} & graph["cutoff"]


# ---------------------------------------------------------------------------
# scipy.stats stays out of the import graph: loading it costs more than half
# a second of every run's set-up, for three small uses that scipy.special
# covers.

def _scipy_stats_imports(source: str):
    """Line numbers of every import of scipy.stats (or a submodule) in a source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "scipy.stats" or n.startswith("scipy.stats.") for n in names):
            yield node.lineno


def test_scan_sees_scipy_stats_imports():
    found = _scipy_stats_imports(
        "import scipy.stats\nfrom scipy import stats\nfrom scipy.stats import qmc\n"
        "import scipy.special\nfrom scipy import special\n"
    )
    assert list(found) == [1, 2, 3]


def test_no_scipy_stats_import_in_package():
    found = [f"{name}.py:{line}" for name, path in MODULES.items() for line in _scipy_stats_imports(path.read_text())]
    assert not found, "scipy.stats imported at " + ", ".join(found)


# ---------------------------------------------------------------------------
# No solve_triangular in the package: with a matrix right-hand side scipy's
# OpenBLAS solves it on two threads even at 4 x 4, and the second thread then
# busy-waits for the rest of the run.  LAPACK dtrtri gives the inverse factor.

def _solve_triangular_calls(source: str):
    """Line numbers of every call of a function named solve_triangular in a source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "solve_triangular":
                yield node.lineno


def test_scan_sees_solve_triangular_calls():
    found = _solve_triangular_calls(
        "import scipy.linalg as sla\nfrom scipy.linalg import solve_triangular\n"
        "sla.solve_triangular(L, b)\nsolve_triangular(L, b, lower=True)\n"
        "scipy.linalg.solve_triangular(L, B)\nsla.lapack.dtrtri(L, lower=1)\nsla.solve(L, b)\n"
    )
    assert list(found) == [3, 4, 5]


def test_no_solve_triangular_in_package():
    found = [f"{name}.py:{line}" for name, path in MODULES.items() for line in _solve_triangular_calls(path.read_text())]
    assert not found, "solve_triangular called at " + ", ".join(found)


_LOADED_STATS = "import sys; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"

_SMALL_RUNS = """
import sys, tempfile
from langmix import harness
base = dict(schema_version=1, model=harness.corpus_model_config("lin1d_complex"), seed=3, dt=0.01)
harness.run_cutoff_experiment(harness.validate_config(dict(
    base, epsilons=[1e-2], x0=[[0.6, 0.3]], w_grid={"min": -1.0, "max": 1.0, "step": 1.0},
    mc_curve=True, n_paths=64, out_dir=tempfile.mkdtemp(dir=sys.argv[1]))))
harness.run_stationary_check(harness.validate_config(dict(
    base, epsilons=[1e-1], x0=[[0.5, 0.0]], horizon=2.0, n_paths=500,
    out_dir=tempfile.mkdtemp(dir=sys.argv[1]))))
"""


def _stats_modules_after(code: str, *args) -> str:
    """The scipy.stats modules loaded after running code in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_LOADED_STATS}", *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def test_fresh_import_leaves_scipy_stats_unloaded():
    assert _stats_modules_after("import langmix, langmix.cli") == "[]"


def test_pipeline_runs_leave_scipy_stats_unloaded(tmp_path):
    # a lazy import inside the run path would move the cost from set-up into the run
    assert _stats_modules_after("import langmix, langmix.cli" + _SMALL_RUNS, str(tmp_path)) == "[]"
