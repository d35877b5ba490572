"""Record the correctness references the benchmark gates every run against.

Usage (from the root of a checkout, on the code the references should
describe):

    python3 bench/record_refs.py

Runs every workload's pipeline in this process with `langmix` from `src/`.
Deterministic workloads run once.  Monte Carlo workloads run on each of
REF_SEEDS and keep the mean and standard deviation of each Monte Carlo
statistic over them; their deterministic outputs must agree bitwise across
seeds.  Rewrites
`bench/references.json`.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

REF_SEEDS = list(range(1000, 1032))


def _deterministic_view(outputs: dict) -> dict:
    """Outputs with the Monte Carlo columns removed, for the cross-seed check."""
    view = json.loads(json.dumps(outputs))
    for table in view["csv"].values():
        for col in ("tv_empirical", *gate.STATIONARY_HEADER[1:]):
            table["cols"].pop(col, None)
    view.pop("passed")
    return view


def record_workload(name: str, work: Path, tiny: bool = False, n_seeds: int = len(REF_SEEDS)) -> dict:
    from langmix import harness

    spec = WORKLOADS[name]
    seeds = REF_SEEDS[:n_seeds] if spec["seeded"] else [0]
    entry, stats, verdicts = None, {}, []
    for seed in seeds:
        config = workload_config(name, seed, tiny=tiny)
        out_dir = work / f"{name}-{seed}"
        raw = dict(config, schema_version=1, model=harness.corpus_model_config(spec["corpus"]),
                   out_dir=str(out_dir))
        cfg = harness.validate_config(raw)
        run = harness.run_cutoff_experiment if spec["pipeline"] == "cutoff" else harness.run_stationary_check
        run(cfg)
        outputs = gate.read_outputs(spec["pipeline"], str(out_dir))
        shutil.rmtree(out_dir)
        verdicts.append(outputs["passed"])
        for key, value in gate.mc_statistics(spec["pipeline"], config, outputs).items():
            stats.setdefault(key, []).append(value)
        if entry is None:
            entry = {
                "pipeline": spec["pipeline"],
                "config": {k: v for k, v in config.items() if k != "seed"},
                "deterministic": outputs,
            }
        elif _deterministic_view(outputs) != _deterministic_view(entry["deterministic"]):
            raise RuntimeError(f"{name}: deterministic outputs differ between seeds")
    entry["mc"] = {
        key: {"mean": statistics.fmean(v), "sd": statistics.stdev(v) if len(v) > 1 else 0.0, "n": len(v)}
        for key, v in stats.items()
    }
    entry["seeds"] = seeds
    entry["pipeline_passed"] = verdicts  # recorded, never gated
    return entry


def record(names, path: Path, tiny: bool = False, n_seeds: int = len(REF_SEEDS)) -> dict:
    import numpy
    import scipy

    import langmix

    refs = {"workloads": {}}
    work = ROOT / ".bench_work" / f"record-{os.getpid()}"
    try:
        for name in names:
            print(f"recording {name}", file=sys.stderr)
            refs["workloads"][name] = record_workload(name, work, tiny=tiny, n_seeds=n_seeds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs["recorded_with"] = {
        "langmix": langmix.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return refs


if __name__ == "__main__":
    record(sorted(WORKLOADS), HERE / "references.json")
