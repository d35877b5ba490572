"""The langmix benchmark: one workload, closed loop, one client.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repetitions of the workload's pipeline call run one at a time, each in a
fresh Python process importing `langmix` from `src/` of this checkout, until
S seconds have passed (at least one repetition).  Every repetition's outputs
are gated against `bench/references.json`.  BLAS is held to one thread.

With --trace 0 the last stdout line reports the end-to-end metrics: medians
of the pipeline wall time (run_s), its CPU time (cpu_s), the peak resident
memory of the run process (peak_rss_mb), and of the fresh-process set-up
time (setup_s, taken from every repetition plus set-up-only processes until
there are at least MIN_SETUPS samples).  With --trace 1 repetitions alternate
untraced and traced, and it reports the per-layer metrics of the traced ones
(medians) with the tracing overhead.  Metric names and units are those of
BENCHMARK.json.  Earlier lines carry the environment and per-repetition
detail.  The exit code is 0 whenever a result is printed.  It is 2, with no
result, when the checkout has no `src/langmix`, the references do not match
the workloads, or no repetition completed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "references.json"
WORK = ROOT / ".bench_work"
MIN_SETUPS = 5
HARD_LIMIT_S = 150.0  # keep the whole invocation well inside three minutes
# One BLAS thread: a plain single-threaded baseline.  At the OpenBLAS default
# of one thread per CPU, the 4-d Monte Carlo TV of cutoff_lin2d threads its
# small products: on 2 CPUs it took 9.4 s wall and 16.5 s CPU, against 6.4 s
# and 6.3 s on one thread.
BLAS_THREADS = 1

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, workload_config  # noqa: E402


class BenchError(RuntimeError):
    """The checkout, the references or the program cannot run this benchmark."""


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _run_worker(spec: dict, env: dict, timeout: float) -> dict:
    """One fresh-process repetition; a crash or time-out becomes a failed result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"repetition exceeded {timeout:.0f} s and was killed"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"worker exited with {proc.returncode}: {' | '.join(tail)}"]}
    return json.loads(lines[-1])


def _metric_table(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[kind]


def _emit(kind: str, values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in _metric_table(kind)}


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    refs: Path = REFS,
    tiny: bool = False,
    perturb=None,
    log=print,
) -> dict:
    """Run one benchmark invocation and return its result object."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; have {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "langmix" / "__init__.py").is_file():
        raise BenchError(f"no langmix sources under {ROOT / 'src'}")
    try:
        with open(refs) as fh:
            ref = json.load(fh)["workloads"][workload]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no usable references for {workload!r} in {refs}: {exc!r}") from exc
    config = workload_config(workload, seed, tiny=tiny)
    if {k: v for k, v in config.items() if k != "seed"} != ref["config"]:
        raise BenchError(f"the references in {refs} were recorded for another {workload!r} config")

    env = _child_env(BLAS_THREADS)
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    base = {
        "root": str(ROOT),
        "workload": workload,
        "pipeline": WORKLOADS[workload]["pipeline"],
        "corpus": WORKLOADS[workload]["corpus"],
        "config": config,
        "refs": str(refs),
        "perturb": perturb,
    }

    start = time.perf_counter()

    def remaining() -> float:
        return max(HARD_LIMIT_S - (time.perf_counter() - start), 5.0)

    reps = []
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            i = len(reps)
            spec = dict(
                base,
                out_dir=str(work / f"rep{i}"),
                setup_only=False,
                trace=traced,
                run_id=f"{workload}-seed{seed}-rep{i}",
                spans_path=str(WORK / f"spans-{workload}-seed{seed}.json"),
            )
            res = _run_worker(spec, env, remaining())
            shutil.rmtree(spec["out_dir"], ignore_errors=True)
            res["traced"] = traced
            reps.append(res)
            log(
                f"# rep {i}{' traced' if traced else ''}: "
                + " ".join(f"{k}={res[k]:.4f}" for k in ("setup_s", "run_s", "cpu_s") if k in res)
                + f" passed={res.get('passed')} errors={len(res['errors'])}"
                + "".join(f"\n#   {e}" for e in res["errors"][:5])
            )
            elapsed = time.perf_counter() - start
            have_both = not trace or (len(reps) >= 2)
            if (elapsed >= seconds and have_both) or elapsed >= HARD_LIMIT_S:
                break
        setups = [r["setup_s"] for r in reps if "setup_s" in r]
        while len(setups) < MIN_SETUPS and time.perf_counter() - start < HARD_LIMIT_S:
            res = _run_worker(dict(base, out_dir=str(work / "setup"), setup_only=True, trace=False),
                              env, remaining())
            if "setup_s" not in res:
                raise BenchError(f"set-up failed: {res['errors']}")
            setups.append(res["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env_block = next((r["env"] for r in reps if "env" in r), None)
    log("# env " + json.dumps(env_block, sort_keys=True))
    failed = sum(1 for r in reps if r["errors"])
    plain = [r for r in reps if not r["traced"] and "run_s" in r]
    log(f"# {len(reps)} repetitions ({len(plain)} untraced), {failed} failed, "
        f"{len(setups)} set-up samples; failed_frac={failed / len(reps):.4f}")

    if not plain:
        raise BenchError("no repetition completed")
    if not trace:
        values = {k: statistics.median(r[k] for r in plain) for k in ("run_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        metrics = _emit("end_to_end", values)
    else:
        traced_reps = [r for r in reps if r["traced"] and "layers" in r]
        if not traced_reps or not plain:
            raise BenchError("no traced and untraced repetition pair completed")
        values = {k: statistics.median(r["layers"][k] for r in traced_reps)
                  for k in traced_reps[0]["layers"]}
        values["trace.overhead_frac"] = (
            statistics.median(r["run_s"] for r in traced_reps)
            / statistics.median(r["run_s"] for r in plain)
            - 1.0
        )
        last = traced_reps[-1]
        shares = sorted(((t["self_s"], name) for name, t in last["spans"].items()), reverse=True)
        log("# self time by span, share of the traced run_s: "
            + ", ".join(f"{name} {s / last['run_s']:.1%}" for s, name in shares))
        metrics = _emit("per_layer", values)
    for name, m in metrics.items():
        log(f"# {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
