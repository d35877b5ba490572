"""The benchmark's span tracer still binds to the package.

`bench/spans.py` wraps public functions by module and name and binds their
arguments by parameter name (`t_end`, `dt`, `n_paths`, `method`).  A rename
in the package crashes every traced benchmark run, so this test installs the
tracer in a fresh interpreter, runs small versions of both pipelines, and
checks that every per-layer metric the benchmark declares comes out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import langmix

ROOT = Path(langmix.__file__).resolve().parents[2]

_TRACED_RUNS = """
import importlib.util, json, sys, tempfile
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import langmix, langmix.cli
from langmix import harness
tracer = spans.Tracer("contract")
tracer.install()
base = dict(schema_version=1, model=harness.corpus_model_config("lin1d_complex"), seed=3, dt=0.01)
harness.run_cutoff_experiment(harness.validate_config(dict(
    base, epsilons=[1e-2], x0=[[0.6, 0.3]], w_grid={"min": -1.0, "max": 1.0, "step": 1.0},
    mc_curve=True, n_paths=64, out_dir=tempfile.mkdtemp(dir=sys.argv[2]))))
harness.run_stationary_check(harness.validate_config(dict(
    base, epsilons=[1e-1], x0=[[0.5, 0.0]], horizon=2.0, n_paths=500,
    out_dir=tempfile.mkdtemp(dir=sys.argv[2]))))
print(json.dumps(spans.layer_metrics(tracer)))
"""


def test_tracer_reports_every_declared_layer_metric(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUNS, str(ROOT / "bench" / "spans.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # run.py adds the overhead from untraced and traced repetitions
    assert set(metrics) == declared - {"trace.overhead_frac"}
    # the wrapped calls of both pipelines were seen
    for name in ("simulate.path_steps", "simulate.empirical_tv.calls", "covflow.steps",
                 "gaussian_tv.cdf_quadrature.calls", "matrix_eq.sigma_matrix.calls",
                 "matrix_eq.lyapunov_solves", "model.force_builds", "harness.csv_bytes"):
        assert metrics[name] > 0, name
