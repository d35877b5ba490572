"""Correctness gate: a run's outputs against references recorded at the seed commit.

Each output is checked at its method's stated accuracy:

* deterministic columns (CDF-quadrature TV, D_eps, both Lambda columns) and
  eta, nu: within TIGHT, widened only by the local slope of the reference
  curve times the shift of the window time t and of tau, so that an
  event-located ball entry (tau within TAU_TOL) still passes;
* tau and t_mix: within TAU_TOL (the flow step of `cutoff.spectral_data`);
* Monte Carlo outputs: within Z standard errors.  The 4-d `tv_exact` column
  is a 200k-sample importance-sampling mean of |tanh| in [0, 1], so its
  standard error is at most sqrt(mu (1 - mu) / n).  Ensemble statistics
  (per-curve mean of `tv_empirical`, `tv_momentmatch`, `tv_knn`, `c_fit`)
  are compared with the mean and spread of the same statistic over the
  reference seeds.

The pipeline's own `passed` verdict is read but never gated.  This module
uses only the standard library, so it checks the program without importing
it.
"""

from __future__ import annotations

import csv
import json
import math
import os

TIGHT = 1e-8
TAU_TOL = 1e-3
Z = 6.0
MC_TV_SAMPLES = 200_000  # harness.exact_gaussian_tv_curve_point for state dimension > 2

CUTOFF_HEADER = ["w", "t", "tv_exact", "D_eps", "Lambda_printed", "Lambda_alt", "tv_empirical"]
STATIONARY_HEADER = [
    "epsilon", "tv_momentmatch", "tv_mm_stderr", "tv_knn", "tv_knn_stderr", "mean_sq", "c_fit",
]
STATIONARY_MC = ["tv_momentmatch", "tv_knn", "c_fit"]


def _read_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {"header": header, "cols": {h: [float(r[i]) for r in body] for i, h in enumerate(header)}}


def read_outputs(pipeline: str, out_dir: str) -> dict:
    """Parse the CSVs, summary and manifest a pipeline wrote to out_dir."""
    with open(os.path.join(out_dir, "run_manifest.json")) as fh:
        manifest = json.load(fh)
    csvs = {
        name: _read_csv(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
        if name.endswith(".csv")
    }
    out = {"csv": csvs, "passed": manifest["passed"], "status": manifest["status"]}
    if pipeline == "cutoff":
        with open(os.path.join(out_dir, "cutoff_summary.json")) as fh:
            summary = json.load(fh)
        out["runs"] = [
            {
                "x0": run["x0"],
                "eta": run["eta"],
                "nu": run["nu"],
                "tau": run["tau"],
                "r_exists": run["r_limit"]["exists"],
                "sup_diffs": run["sup_diffs"],
            }
            for run in summary["runs"]
        ]
    return out


def curve_tag(x0, eps) -> str:
    """File tag of one (x0, epsilon) curve, as `harness.run_cutoff_experiment` writes it."""
    return f"x{'_'.join(f'{v:g}' for v in x0)}_eps{eps:g}"


def mc_statistics(pipeline: str, config: dict, outputs: dict) -> dict:
    """The Monte Carlo statistics of one run, keyed by name."""
    stats = {}
    if pipeline == "cutoff":
        if config.get("mc_curve"):
            for name, table in outputs["csv"].items():
                col = table["cols"]["tv_empirical"]
                stats[f"{name}:mean_tv_empirical"] = sum(col) / len(col)
    else:
        table = outputs["csv"]["stationary_check.csv"]["cols"]
        for i, eps in enumerate(table["epsilon"]):
            for col in STATIONARY_MC:
                stats[f"eps{eps:g}:{col}"] = table[col][i]
    return stats


def _mc_tv_stderr(mu: float) -> float:
    mu = min(max(mu, 0.0), 1.0)
    return math.sqrt(max(mu * (1.0 - mu), 1.0 / MC_TV_SAMPLES) / MC_TV_SAMPLES)


def _slopes(t: list, v: list) -> list:
    """Largest secant slope |dv/dt| to either neighbour, per row."""
    out = []
    for i in range(len(t)):
        s = 0.0
        for j in (i - 1, i + 1):
            if 0 <= j < len(t) and t[j] != t[i] and math.isfinite(v[i]) and math.isfinite(v[j]):
                s = max(s, abs(v[j] - v[i]) / abs(t[j] - t[i]))
        out.append(s)
    return out


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def _check_cutoff(ref: dict, out: dict, errors: list):
    det = ref["deterministic"]
    dt = ref["config"]["dt"]
    mc_tv = len(ref["config"]["x0"][0]) > 2
    if len(out["runs"]) != len(det["runs"]):
        errors.append(f"{len(out['runs'])} runs in the summary, expected {len(det['runs'])}")
        return
    dtau = 0.0
    for i, (r, o) in enumerate(zip(det["runs"], out["runs"])):
        dtau = max(dtau, abs(o["tau"] - r["tau"]))
        if o["x0"] != r["x0"] or o["nu"] != r["nu"] or o["r_exists"] != r["r_exists"]:
            errors.append(f"run {i}: x0, nu or r_limit.exists differ from the reference")
        if not _close(o["eta"], r["eta"], 1e-9 * abs(r["eta"])):
            errors.append(f"run {i}: eta {o['eta']!r} != {r['eta']!r}")
        if not abs(o["tau"] - r["tau"]) <= TAU_TOL:
            errors.append(f"run {i}: tau {o['tau']!r} differs from {r['tau']!r} by more than {TAU_TOL}")
        if [s["epsilon"] for s in o["sup_diffs"]] != [s["epsilon"] for s in r["sup_diffs"]]:
            errors.append(f"run {i}: sup_diffs cover other epsilons than the reference")
        for so, sr in zip(o["sup_diffs"], r["sup_diffs"]):
            if not abs(so["t_mix"] - sr["t_mix"]) <= TAU_TOL + 1e-9 * abs(sr["t_mix"]):
                errors.append(f"run {i}: t_mix {so['t_mix']!r} != {sr['t_mix']!r}")
            table = out["csv"].get(f"cutoff_{curve_tag(o['x0'], so['epsilon'])}.csv")
            if table is not None:
                cols = table["cols"]
                sup = max((abs(a - b) for a, b in zip(cols["tv_exact"], cols["D_eps"])), default=0.0)
                if not _close(sup, so["sup_diff"], 1e-12):
                    errors.append(f"run {i}: sup_diff {so['sup_diff']!r} disagrees with its CSV ({sup!r})")

    if sorted(out["csv"]) != sorted(det["csv"]):
        errors.append(f"CSV files {sorted(out['csv'])} != {sorted(det['csv'])}")
        return
    for name, rtab in det["csv"].items():
        otab = out["csv"][name]
        if otab["header"] != CUTOFF_HEADER:
            errors.append(f"{name}: header {otab['header']}")
            continue
        rc, oc = rtab["cols"], otab["cols"]
        if oc["w"] != rc["w"]:
            errors.append(f"{name}: window grid differs from the reference")
            continue
        for i, (to, tr) in enumerate(zip(oc["t"], rc["t"])):
            if not abs(to - tr) <= dt * (1 + 1e-9):
                errors.append(f"{name} row {i}: t {to!r} != {tr!r}")
        for col in ("tv_exact", "D_eps", "Lambda_printed", "Lambda_alt"):
            slopes = _slopes(rc["t"], rc[col])
            for i, (vo, vr) in enumerate(zip(oc[col], rc[col])):
                shift = 2.0 * slopes[i] * (abs(oc["t"][i] - rc["t"][i]) + dtau)
                if col == "tv_exact" and mc_tv:
                    tol = Z * math.hypot(_mc_tv_stderr(vo), _mc_tv_stderr(vr)) + shift
                else:
                    tol = TIGHT + shift
                if not _close(vo, vr, tol):
                    errors.append(f"{name} row {i}: {col} {vo!r} != {vr!r} (tol {tol:.3g})")
        for i, (vo, vr) in enumerate(zip(oc["tv_empirical"], rc["tv_empirical"])):
            if math.isnan(vr) != math.isnan(vo) or not (math.isnan(vo) or 0.0 <= vo <= 1.0):
                errors.append(f"{name} row {i}: tv_empirical {vo!r} (reference {vr!r})")


def _check_stationary(ref: dict, out: dict, errors: list):
    name = "stationary_check.csv"
    if sorted(out["csv"]) != [name]:
        errors.append(f"CSV files {sorted(out['csv'])} != [{name!r}]")
        return
    table = out["csv"][name]
    if table["header"] != STATIONARY_HEADER:
        errors.append(f"{name}: header {table['header']}")
        return
    cols = table["cols"]
    if cols["epsilon"] != ref["deterministic"]["csv"][name]["cols"]["epsilon"]:
        errors.append(f"{name}: epsilon column {cols['epsilon']}")
    for i, eps in enumerate(cols["epsilon"]):
        if not _close(cols["mean_sq"][i] / eps, cols["c_fit"][i], 1e-12 * abs(cols["c_fit"][i])):
            errors.append(f"{name} row {i}: c_fit is not mean_sq / epsilon")
        for col in ("tv_mm_stderr", "tv_knn_stderr"):
            if not (cols[col][i] >= 0.0 and math.isfinite(cols[col][i])):
                errors.append(f"{name} row {i}: {col} {cols[col][i]!r}")


def check(ref: dict, outputs: dict) -> list:
    """Gate one run's outputs against the workload's references; returns the failures."""
    errors = []
    if outputs["status"] != "done":
        errors.append(f"manifest status {outputs['status']!r}")
    if ref["pipeline"] == "cutoff":
        _check_cutoff(ref, outputs, errors)
    else:
        _check_stationary(ref, outputs, errors)
    stats = mc_statistics(ref["pipeline"], ref["config"], outputs)
    if sorted(stats) != sorted(ref["mc"]):
        errors.append(f"Monte Carlo statistics {sorted(stats)} != {sorted(ref['mc'])}")
        return errors
    for key, value in stats.items():
        r = ref["mc"][key]
        tol = Z * r["sd"] * math.sqrt(1.0 + 1.0 / r["n"])
        if not abs(value - r["mean"]) <= tol:
            errors.append(f"{key} = {value!r}, reference {r['mean']!r} +- {tol:.3g} ({Z:g} sd)")
    return errors
