"""Every invariant of the registry as one test, and how `verify_suite` reports them."""

import csv
import json

import pytest

from langmix import checks
from langmix.checks import CHECKS, CheckResult, verify_suite

#: checks that take over a second; `pytest -m "not slow"` leaves them out
SLOW = {"linear.lyapunov_decay", "simulate.gibbs_stationarity", "simulate.curve_vs_empirical"}


@pytest.mark.parametrize(
    "check",
    [pytest.param(fn, id=name, marks=pytest.mark.slow if name in SLOW else ()) for name, fn in CHECKS.items()],
)
def test_check(check):
    result = check()
    assert result.passed, result.detail


def test_registry_names_every_row_and_survives_a_crash(tmp_path, monkeypatch):
    def crashes():
        raise ValueError("boom")

    fake = {
        "fake.passes": lambda: CheckResult(True, 1.0, "fine"),
        "fake.crashes": crashes,
        "fake.fails": lambda: CheckResult(False, 2.0, "too big"),
    }
    monkeypatch.setattr(checks, "CHECKS", fake)
    out_dir = tmp_path / "verify"
    manifest = verify_suite(out_dir=str(out_dir))
    data = json.loads((out_dir / "run_manifest.json").read_text())
    assert data["status"] == "done"
    assert data["passed"] is False and manifest.passed is False
    entries = data["summary"]["checks"]
    assert [e["name"] for e in entries] == list(fake)
    assert [e["passed"] for e in entries] == [True, False, False]
    assert entries[1]["detail"] == "crashed: ValueError('boom')"
    assert entries[2]["detail"] == "too big"
    assert all(isinstance(e["seconds"], float) and e["seconds"] >= 0.0 for e in entries)
    with open(out_dir / "verify_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["check"] for r in rows] == list(fake)
    assert [r["passed"] for r in rows] == ["1", "0", "0"]
    assert [float(r["seconds"]) for r in rows] == [e["seconds"] for e in entries]
