"""tools/output_digest.py: one sha256 per pipeline output of every benchmark workload."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_tool():
    argv = [sys.executable, str(TOOL), str(ROOT / "src"), "--tiny", "--seed", "7"]
    return subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()


def test_digests_every_output_of_every_workload_the_same_on_a_second_run():
    lines = _run_tool()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \w+/\S+", line) for line in lines), lines
    names = {line.split("  ")[1] for line in lines}
    for workload in ("cutoff_quartic", "cutoff_lin2d", "cutoff_mc_small"):
        assert {f"{workload}/cutoff_summary.json", f"{workload}/run_manifest.json:summary"} <= names
        assert any(re.fullmatch(f"{workload}/cutoff_x.*\\.csv", name) for name in names)
    assert {"stationary_quartic/stationary_check.csv", "stationary_quartic/run_manifest.json:summary"} <= names
    assert _run_tool() == lines


def test_a_manifest_counts_by_its_summary_alone(tmp_path):
    digest_outputs = _tool().digest_outputs
    (tmp_path / "a.csv").write_text("w,t\n0,1\n")
    (tmp_path / "notes.txt").write_text("not an output")

    def digests(manifest):
        (tmp_path / "run_manifest.json").write_text(json.dumps(manifest))
        return dict(digest_outputs(str(tmp_path)))

    first = digests({"started_at": 1.0, "summary": {"b": 1, "a": [0.5]}})
    assert sorted(first) == ["a.csv", "run_manifest.json:summary"]
    assert digests({"started_at": 2.0, "summary": {"a": [0.5], "b": 1}}) == first
    assert digests({"started_at": 1.0, "summary": {"a": [0.25], "b": 1}})["run_manifest.json:summary"] != (
        first["run_manifest.json:summary"]
    )
