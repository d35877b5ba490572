"""Self-test of the benchmark at tiny sizes.

Usage (from the root of a checkout): python3 bench/selftest.py

Records references for the tiny variant of every workload on twelve seeds,
then checks that

* every workload passes its gate on another seed and emits every metric of
  BENCHMARK.json, with its unit, in both the untraced and the traced mode;
* a perturbed output fails the gate and is counted: deterministic
  (D_eps + 1e-6) and Monte Carlo (tv_momentmatch + 0.5) perturbations each
  make every repetition fail, so failed / attempted = 1 and correct is false.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import record_refs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    work = run.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    refs = work / "refs.json"
    refs.unlink(missing_ok=True)
    failures = []

    def expect(cond: bool, what: str):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    try:
        record_refs.record(sorted(WORKLOADS), refs, tiny=True, n_seeds=12)
        quiet = lambda _line: None  # noqa: E731
        for name in sorted(WORKLOADS):
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                res = run.run_benchmark(name, 7, 0, trace, refs=refs, tiny=True, log=quiet)
                want = {m["name"]: m["unit"] for m in contract[kind]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                expect(res["correct"] and res["failed"] == 0, f"{name} trace={int(trace)}: gate passes on seed 7")
                expect(got == want, f"{name} trace={int(trace)}: every {kind} metric emitted with its unit")
        for name, column, delta in (
            ("cutoff_quartic", "D_eps", 1e-6),
            ("stationary_quartic", "tv_momentmatch", 0.5),
        ):
            res = run.run_benchmark(name, 7, 0, False, refs=refs, tiny=True,
                                    perturb={"column": column, "delta": delta}, log=quiet)
            expect(
                not res["correct"] and res["attempted"] >= 1 and res["failed"] == res["attempted"],
                f"{name}: {column} + {delta:g} fails the gate; failed_frac = "
                f"{res['failed']}/{res['attempted']}",
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
