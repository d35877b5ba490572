"""Every invariant of the registry as one test, and how `verify_suite` reports them."""

import csv
import hashlib
import json

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from langmix import checks
from langmix.checks import CHECKS, CheckResult, pearson_2xk_pvalue, verify_suite
from langmix.errors import ParameterError

#: checks that take over a second; `pytest -m "not slow"` leaves them out
SLOW = {"simulate.gibbs_stationarity", "simulate.curve_vs_empirical"}


@pytest.mark.parametrize(
    "check",
    [pytest.param(fn, id=name, marks=pytest.mark.slow if name in SLOW else ()) for name, fn in CHECKS.items()],
)
def test_check(check):
    result = check()
    assert result.passed, result.detail
    # what `verify_suite` writes into the manifest and the report
    float(result.margin)
    assert isinstance(result.detail, str)


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


def test_report_cells_holding_commas_stay_in_their_column(tmp_path, monkeypatch):
    def crashes():
        raise ValueError("a", "b")

    fake = {"fake.comma": lambda: CheckResult(True, 1.0, "em 1.09, baoab 1.96"), "fake.crashes": crashes}
    monkeypatch.setattr(checks, "CHECKS", fake)
    verify_suite(out_dir=str(tmp_path))
    with open(tmp_path / "verify_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [5, 5, 5]
    assert [r[3] for r in rows[1:]] == ["em 1.09, baoab 1.96", "crashed: ValueError('a', 'b')"]


@pytest.mark.parametrize("k", [3, 4, 7, 15, 29])
def test_pearson_pvalue_matches_scipy(k):
    # both rows from one law, so the p-values spread over (0, 1) rather
    # than underflowing; plus one lopsided table with a tiny p-value
    rng = np.random.default_rng(k)
    weights = rng.dirichlet(np.ones(k))
    tables = [np.vstack([rng.multinomial(n, weights), rng.multinomial(n, weights)]) + 1
              for n in (50, 400, 5000)]
    tables.append(np.vstack([np.arange(1, k + 1), np.arange(k, 0, -1)]) * 20)
    for table in tables:
        expected = chi2_contingency(table)[1]
        assert pearson_2xk_pvalue(table) == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("table", [[[3, 4], [5, 6]], [[3], [4]], [[1, 2, 3]], [[1, 2, 3]] * 3])
def test_pearson_pvalue_refuses_tables_without_two_rows_and_three_bins(table):
    # at k = 2 scipy's test applies Yates' correction; the check refuses it instead
    with pytest.raises(ParameterError):
        pearson_2xk_pvalue(table)


def test_verify_manifest_hashes_the_ordered_check_names(tmp_path, monkeypatch):
    fake = {name: (lambda: CheckResult(True, 1.0, "")) for name in ("fake.b", "fake.a")}
    monkeypatch.setattr(checks, "CHECKS", fake)
    hashes = []
    for order in (fake, dict(reversed(fake.items()))):
        monkeypatch.setattr(checks, "CHECKS", order)
        out_dir = tmp_path / str(len(hashes))
        verify_suite(out_dir=str(out_dir))
        hashes.append(json.loads((out_dir / "run_manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashlib.sha256(b'["fake.b","fake.a"]').hexdigest()
    assert hashes[1] == hashlib.sha256(b'["fake.a","fake.b"]').hexdigest()
