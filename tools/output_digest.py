"""Digest the outputs of every benchmark workload's pipeline, to compare two checkouts.

Usage: python3 tools/output_digest.py SRC [--seed N] [--tiny]

Imports `langmix` from SRC, a checkout's `src/` directory, and runs the
pipeline of each workload in this checkout's `bench/workloads.py` once, at
workload seed N (default 101), each in a temporary directory.  Prints one
line `sha256  workload/name` per output: every CSV and `cutoff_summary.json`
as written, and the manifest's `summary` block as `run_manifest.json:summary`
(serialized with sorted keys; the manifest's other fields hold times).  One
copy of this script run on two checkouts gives two listings, and the outputs
are byte-identical where the lines are.  --tiny runs the reduced sizes of the
benchmark's self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_outputs(out_dir: str) -> list:
    """(name, sha256) of each CSV, the cut-off summary and the manifest summary in out_dir, by name."""
    lines = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv") or name == "cutoff_summary.json":
            with open(path, "rb") as fh:
                lines.append((name, _sha256(fh.read())))
        elif name == "run_manifest.json":
            with open(path) as fh:
                summary = json.load(fh)["summary"]
            lines.append((f"{name}:summary", _sha256(json.dumps(summary, sort_keys=True).encode())))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src/ directory of the checkout whose langmix runs")
    parser.add_argument("--seed", type=int, default=101, help="workload seed (default 101)")
    parser.add_argument("--tiny", action="store_true", help="the benchmark self-test's reduced sizes")
    args = parser.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import langmix
    from langmix import harness
    from workloads import WORKLOADS, workload_config

    if not os.path.abspath(langmix.__file__).startswith(src + os.sep):
        raise SystemExit(f"langmix was imported from {langmix.__file__}, not from {src}")
    entries = {"cutoff": harness.run_cutoff_experiment, "stationary": harness.run_stationary_check}
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as out_dir:
            raw = dict(
                workload_config(name, args.seed, tiny=args.tiny),
                schema_version=1,
                model=harness.corpus_model_config(workload["corpus"]),
                out_dir=out_dir,
            )
            entries[workload["pipeline"]](harness.validate_config(raw))
            for output, digest in digest_outputs(out_dir):
                print(f"{digest}  {name}/{output}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
