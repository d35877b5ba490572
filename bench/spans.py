"""Span tracing of the calls into each `langmix` layer, installed from outside.

`Tracer.install` replaces every binding of the wrapped public functions in
the loaded `langmix` modules (including names imported with `from .x import
f`) by a wrapper that records a span (name, start, end, parent, run id) and
the layer's computed work counts.  Nothing under `src/` changes.  Spans stay
in memory; `layer_metrics` derives self times (a span's duration minus the
time its child spans cover) and the per-layer metrics from them.  Hot
helpers such as `drift_matrix` and `rk4_step` are deliberately not wrapped,
to keep the tracing overhead small.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time


def _steps(a) -> int:
    return int(round(a["t_end"] / a["dt"]))


def _count_sde(counts, a, result):
    n_steps = _steps(a)
    block = getattr(sys.modules["langmix.simulate"], "BLOCK", 1)
    blocks = -(-a["n_paths"] // block)
    counts["simulate.path_steps"] += a["n_paths"] * n_steps
    # the seed's scheme draws a full block of rows per step and block
    counts["simulate.rng_rows_drawn"] += blocks * block * n_steps


def _count_flow(counts, a, result):
    counts["linear_stability.flow_steps"] += _steps(a)


def _count_covflow(counts, a, result):
    counts["covflow.steps"] += _steps(a)


def _count_tv(counts, a, result):
    if a["method"] == "monte_carlo":
        counts["gaussian_tv.mc_samples"] += a["n"]


def _count_csv(counts, a, result):
    counts["harness.csv_bytes"] += os.path.getsize(result)


# (module, function, span label or None for "<module>.<function>", counter)
TARGETS = [
    ("harness", "run_cutoff_experiment", "harness", None),
    ("harness", "run_stationary_check", "harness", None),
    ("harness", "write_csv", None, _count_csv),
    ("model", "force_from_config", None, None),
    ("simulate", "integrate_sde", None, _count_sde),
    ("simulate", "empirical_tv", None, None),
    ("linear_stability", "flow_zero_noise", None, _count_flow),
    ("cutoff", "spectral_data", None, None),
    ("covflow", "integrate_covariance", None, _count_covflow),
    ("gaussian_tv", "tv_gaussian", lambda a: f"gaussian_tv.{a['method']}", _count_tv),
    ("matrix_eq", "sigma_matrix", None, None),
    ("matrix_eq", "solve_lyapunov_stable", None, None),
    ("matrix_eq", "drift_metric_delta", None, None),
]

COUNTS = [
    "simulate.path_steps",
    "simulate.rng_rows_drawn",
    "linear_stability.flow_steps",
    "covflow.steps",
    "gaussian_tv.mc_samples",
    "harness.csv_bytes",
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []

    def install(self):
        """Wrap every TARGETS function wherever a loaded langmix module binds it."""
        for mod_name, fn_name, label, counter in TARGETS:
            orig = getattr(importlib.import_module(f"langmix.{mod_name}"), fn_name)
            wrapper = self._wrap(orig, label or f"{mod_name}.{fn_name}", counter)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "langmix":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _wrap(self, fn, label, counter):
        sig = inspect.signature(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = None
            if counter is not None or callable(label):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
            idx = len(spans)
            spans.append([label(a) if callable(label) else label, time.perf_counter_ns(), 0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter_ns()
            if counter is not None:
                counter(counts, a, result)
            return result

        return wrapper

    def records(self) -> list:
        """Spans as dicts, for writing out once the run ends."""
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "run_id": self.run_id}
            for n, s, e, p in self.spans
        ]


def span_totals(spans: list) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), c in zip(spans, child):
        t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["total_s"] += (end - start) * 1e-9
        t["self_s"] += (end - start - c) * 1e-9
    return out


def _sigma_hits(spans: list) -> int:
    solved = {p for name, _, _, p in spans if name == "matrix_eq.solve_lyapunov_stable"}
    return sum(
        1 for i, s in enumerate(spans) if s[0] == "matrix_eq.sigma_matrix" and i not in solved
    )


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run (values only; units live in BENCHMARK.json)."""
    tot = span_totals(tracer.spans)
    c = tracer.counts

    def g(name, key):
        return tot.get(name, {}).get(key, 0.0)

    sde_self = g("simulate.integrate_sde", "self_s")
    flow_self = g("linear_stability.flow_zero_noise", "self_s")
    cov_self = g("covflow.integrate_covariance", "self_s")
    sigma_calls = g("matrix_eq.sigma_matrix", "calls")
    m = {
        "simulate.integrate_sde.self_s": sde_self,
        "simulate.path_steps": c["simulate.path_steps"],
        "simulate.ns_per_path_step": _per(sde_self * 1e9, c["simulate.path_steps"]),
        "simulate.rng_rows_drawn": c["simulate.rng_rows_drawn"],
        "simulate.rng_useful_ratio": _per(c["simulate.path_steps"], c["simulate.rng_rows_drawn"]),
        "simulate.empirical_tv.self_s": g("simulate.empirical_tv", "self_s"),
        "simulate.empirical_tv.calls": g("simulate.empirical_tv", "calls"),
        "linear_stability.flow_zero_noise.self_s": flow_self,
        "linear_stability.flow_steps": c["linear_stability.flow_steps"],
        "linear_stability.us_per_flow_step": _per(flow_self * 1e6, c["linear_stability.flow_steps"]),
        "cutoff.spectral_data.total_s": g("cutoff.spectral_data", "total_s"),
        "covflow.integrate_covariance.self_s": cov_self,
        "covflow.steps": c["covflow.steps"],
        "covflow.us_per_step": _per(cov_self * 1e6, c["covflow.steps"]),
        "gaussian_tv.monte_carlo.calls": g("gaussian_tv.monte_carlo", "calls"),
        "gaussian_tv.monte_carlo.ms_per_call": _per(
            g("gaussian_tv.monte_carlo", "total_s") * 1e3, g("gaussian_tv.monte_carlo", "calls")
        ),
        "gaussian_tv.mc_samples": c["gaussian_tv.mc_samples"],
        "gaussian_tv.cdf_quadrature.calls": g("gaussian_tv.cdf_quadrature", "calls"),
        "gaussian_tv.cdf_quadrature.ms_per_call": _per(
            g("gaussian_tv.cdf_quadrature", "total_s") * 1e3, g("gaussian_tv.cdf_quadrature", "calls")
        ),
        "matrix_eq.sigma_matrix.calls": sigma_calls,
        "matrix_eq.lyapunov_solves": g("matrix_eq.solve_lyapunov_stable", "calls"),
        "matrix_eq.sigma_cache_hit_ratio": _per(_sigma_hits(tracer.spans), sigma_calls),
        "matrix_eq.drift_metric_delta.self_s": g("matrix_eq.drift_metric_delta", "self_s"),
        "model.force_builds": g("model.force_from_config", "calls"),
        "model.force_from_config.self_s": g("model.force_from_config", "self_s"),
        "harness.self_s": g("harness", "self_s"),
        "harness.csv_bytes": c["harness.csv_bytes"],
        "harness.write_csv.self_s": g("harness.write_csv", "self_s"),
    }
    bad = [k for k, v in m.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite layer metrics: {bad}")
    return m
