"""One benchmark repetition, run by `run.py` in a fresh process.

Usage: python3 bench/worker.py '<json spec>'

Times the set-up (import `langmix` and `langmix.cli`, build and validate the
config), then, unless the spec asks for set-up only, calls the pipeline
entry point once, optionally under span tracing, and gates its outputs.
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def environment() -> dict:
    """Machine and library versions the repetition ran with."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(spec: dict) -> dict:
    t0 = time.perf_counter()
    import langmix
    import langmix.cli  # noqa: F401  (part of the CLI's set-up cost)
    from langmix import harness

    raw = dict(
        spec["config"],
        schema_version=1,
        model=harness.corpus_model_config(spec["corpus"]),
        out_dir=spec["out_dir"],
    )
    cfg = harness.validate_config(raw)
    result = {"setup_s": time.perf_counter() - t0}

    src = os.path.join(spec["root"], "src") + os.sep
    if not os.path.abspath(langmix.__file__).startswith(src):
        raise RuntimeError(f"langmix was imported from {langmix.__file__}, not from {src}")
    if spec["setup_only"]:
        return result

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    pipeline = {"cutoff": "run_cutoff_experiment", "stationary": "run_stationary_check"}[spec["pipeline"]]
    entry = getattr(harness, pipeline)  # looked up after install, so a traced run hits the wrapper

    error = None
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        entry(cfg)
    except Exception as exc:  # a failed run is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    result["run_s"] = time.perf_counter() - w0
    result["cpu_s"] = time.process_time() - c0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if error is None:
        import gate

        with open(spec["refs"]) as fh:
            ref = json.load(fh)["workloads"][spec["workload"]]
        outputs = gate.read_outputs(spec["pipeline"], spec["out_dir"])
        perturb = spec.get("perturb")
        if perturb:  # self-test only: prove that a wrong output fails the gate
            for table in outputs["csv"].values():
                table["cols"][perturb["column"]][0] += perturb["delta"]
        result["passed"] = outputs["passed"]
        result["errors"] = gate.check(ref, outputs)
    else:
        result["errors"] = [error]

    if tracer is not None:
        from spans import layer_metrics, span_totals

        result["layers"] = layer_metrics(tracer)
        result["spans"] = span_totals(tracer.spans)
        with open(spec["spans_path"], "w") as fh:
            json.dump(tracer.records(), fh)
    result["env"] = environment()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
