"""Experiment orchestration: config parsing, pipelines, CSV/JSON emission, the model corpus.

Configs are flat JSON with typed keys and an explicit schema version;
unknown keys and malformed values are errors.  Every run writes a manifest
before any long computation starts and atomically finalizes it at the end.
The cut-off pipeline takes its curves from `cutoff.cutoff_curve`; the
harness adds the `mc_curve` ensembles, writes the files and decides the
verdict.  Curve CSVs are deterministic byte-for-byte for a fixed config (17
significant digits, fixed column order).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from .cutoff import cutoff_curve, stationary_law
from .errors import ParameterError, StabilityError
from .linear_stability import classify_linear
from .matrix_eq import sigma_matrix
from .model import ModelSpec, certify_coercivity, force_from_config
from .simulate import KNN_MIN_POINTS, check_seed, empirical_tv, integrate_sde, integrate_sde_runs, runs_per_loop

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version",
    "model",
    "epsilons",
    "x0",
    "w_grid",
    "dt",
    "horizon",
    "n_paths",
    "seed",
    "mc_curve",
    "out_dir",
}
_MODEL_KEYS = {"force", "gamma", "alpha", "beta"}
_WGRID_KEYS = {"min", "max", "step"}
# longest file name, in bytes, that common file systems accept
_NAME_MAX = 255


@dataclass
class ExperimentConfig:
    """Validated experiment description; see `validate_config` for the schema."""

    raw: dict
    model: dict
    epsilons: list
    x0: list
    w_grid: dict
    dt: float
    horizon: float
    n_paths: int
    seed: int
    mc_curve: bool
    out_dir: str

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def _expect_type(value, types, name):
    # bool is a subclass of int, but a JSON true or false is no number
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ParameterError(f"config key {name!r} has type {type(value).__name__}")
    return value


def _finite(value, name) -> float:
    value = float(_expect_type(value, (int, float), name))
    if not np.isfinite(value):
        raise ParameterError(f"config key {name!r} must be finite; got {value}")
    return value


def validate_config(raw: dict) -> ExperimentConfig:
    """Strict validation: unknown keys and malformed values are errors.

    Every number, the model's gamma, alpha and beta included, is finite;
    epsilons lie in (0, 1/2), strictly decreasing (the verdicts compare
    neighbours in list order); dt > 0, horizon > 0, n_paths an integer of at
    least KNN_MIN_POINTS = 6 (the stationary check, and the cut-off pipeline
    with mc_curve, feed each ensemble to the knn TV estimate), a w_grid with
    min <= max and step > 0, x0 a list of points, mc_curve a bool, out_dir a
    string, and the seed an explicit integer >= 0."""
    if not isinstance(raw, dict):
        raise ParameterError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ParameterError(f"schema_version must be {SCHEMA_VERSION}")
    if "model" not in raw or "seed" not in raw:
        raise ParameterError("config must define 'model' and an explicit 'seed'")
    model = _expect_type(raw["model"], dict, "model")
    unknown = set(model) - _MODEL_KEYS
    if unknown:
        raise ParameterError(f"unknown model keys: {sorted(unknown)}")
    for key in ("force", "gamma", "alpha", "beta"):
        if key not in model:
            raise ParameterError(f"model block is missing {key!r}")
    for key in ("gamma", "alpha", "beta"):
        _finite(model[key], key)
    epsilons = [_finite(e, "epsilons") for e in _expect_type(raw.get("epsilons", []), list, "epsilons")]
    for e in epsilons:
        if not (0.0 < e < 0.5):
            raise ParameterError(f"every epsilon must lie in (0, 1/2); got {e}")
    if any(a <= b for a, b in zip(epsilons, epsilons[1:])):
        raise ParameterError(f"epsilons must be strictly decreasing; got {epsilons}")
    w_grid = _expect_type(raw.get("w_grid", {"min": -6.0, "max": 6.0, "step": 0.25}), dict, "w_grid")
    if set(w_grid) != _WGRID_KEYS:
        raise ParameterError(f"w_grid needs exactly the keys max, min, step; got {sorted(w_grid)}")
    w_grid = {key: _finite(v, "w_grid") for key, v in w_grid.items()}
    if not (w_grid["step"] > 0 and w_grid["max"] >= w_grid["min"]):
        raise ParameterError("w_grid needs step > 0 and max >= min")
    dt = _finite(raw.get("dt", 0.005), "dt")
    if dt <= 0:
        raise ParameterError("dt must be positive")
    horizon = _finite(raw.get("horizon", 40.0), "horizon")
    if horizon <= 0:
        raise ParameterError("horizon must be positive")
    n_paths = _expect_type(raw.get("n_paths", 10000), int, "n_paths")
    if n_paths < KNN_MIN_POINTS:
        raise ParameterError(f"n_paths must be at least {KNN_MIN_POINTS}, the knn TV estimate's smallest cloud")
    x0 = [[_finite(c, "x0") for c in _expect_type(v, list, "x0")] for v in _expect_type(raw.get("x0", []), list, "x0")]
    return ExperimentConfig(
        raw=raw,
        model=model,
        epsilons=epsilons,
        x0=x0,
        w_grid=w_grid,
        dt=dt,
        horizon=horizon,
        n_paths=n_paths,
        seed=check_seed(_expect_type(raw["seed"], int, "seed")),
        mc_curve=_expect_type(raw.get("mc_curve", False), bool, "mc_curve"),
        out_dir=_expect_type(raw.get("out_dir", "langmix_out"), str, "out_dir"),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return validate_config(json.load(fh))


def spec_from_model_config(model: dict) -> ModelSpec:
    force = force_from_config(model["force"])
    return ModelSpec(
        force,
        gamma=float(model["gamma"]),
        alpha=float(model["alpha"]),
        beta=float(model["beta"]),
    )


@dataclass
class RunManifest:
    """Run metadata; written before long work starts, finalized atomically.

    stages lists {name, seconds} entries of the pipeline's stages, with the
    x0 or epsilon they belong to and any work counts, outside summary, so
    the summary stays the same for the same config.
    """

    config_hash: str
    code_version: str
    started_at: float
    out_dir: str
    status: str = "running"
    finished_at: Optional[float] = None
    wall_clock: Optional[float] = None
    artifacts: list = field(default_factory=list)
    passed: Optional[bool] = None
    summary: dict = field(default_factory=dict)
    stages: list = field(default_factory=list)

    def path(self) -> str:
        return os.path.join(self.out_dir, "run_manifest.json")

    def write(self):
        os.makedirs(self.out_dir, exist_ok=True)
        payload = {key: value for key, value in asdict(self).items() if key != "out_dir"}
        tmp = self.path() + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.path())

    def finalize(self, passed: bool, summary: Optional[dict] = None, status: str = "done"):
        self.finished_at = time.time()
        self.wall_clock = self.finished_at - self.started_at
        self.status = status
        self.passed = passed
        if summary is not None:
            self.summary.update(summary)
        self.write()


def _run_pipeline(config_hash: str, out_dir: str, body: Callable) -> RunManifest:
    """Write the manifest, then run body(manifest); an exception finalizes the
    manifest as failed and propagates."""
    manifest = RunManifest(config_hash, __version__, started_at=time.time(), out_dir=out_dir)
    manifest.write()
    try:
        body(manifest)
    except Exception as exc:
        manifest.finalize(
            passed=False,
            summary={"error": {"type": type(exc).__name__, "message": str(exc)}},
            status="failed",
        )
        raise
    return manifest


def write_csv(path: str, header: list, rows) -> str:
    """Deterministic CSV: fixed column order, 17-significant-digit floats, quoted where a cell needs it."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v) for v in row]
                      for row in rows)
    return path


def _gate_stability(spec: ModelSpec):
    """Refuse to run cut-off pipelines on models without an exact stability verdict.

    A linear force must pass `classify_linear`; a polynomial gradient force
    must be certified coercive on all of R^dim by `certify_coercivity`, and a
    refusal names a witness point with a negative margin.
    """
    if spec.force.matrix is not None:
        verdict = classify_linear(spec.force.matrix, spec.gamma)
        if not verdict.stable or verdict.indeterminate:
            raise StabilityError(
                "model failed the linear stability classification: "
                + json.dumps(verdict.to_dict())
            )
        return {"kind": "linear", "verdict": verdict.to_dict()}
    cert = certify_coercivity(spec)
    if not cert.certified:
        raise StabilityError(
            f"coercivity assumption refuted: margin {cert.margin:.6g} < 0 at q = {cert.witness.tolist()}"
        )
    return {"kind": "certified", "min_s": cert.min_s}


def _curve_tag(x0, eps: float) -> str:
    """File tag of one (x0, epsilon) curve, written as cutoff_{tag}.csv.

    The tag is x{coordinates}_eps{eps} with every coordinate of x0 in %g
    form.  When that file name would pass the 255-byte limit of common file
    systems, the coordinates give way to 16 hex digits of the SHA-256 of
    their joined text; the run summary still records x0 in full.
    """
    coords = "_".join(f"{v:g}" for v in x0)
    tag = f"x{coords}_eps{eps:g}"
    if len(f"cutoff_{tag}.csv".encode()) > _NAME_MAX:
        tag = f"xsha{hashlib.sha256(coords.encode()).hexdigest()[:16]}_eps{eps:g}"
    return tag


def run_cutoff_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Exact Gaussian cut-off curves, shift profiles, and their sup-differences.

    For each (epsilon, x0): the mixing time from the spectral data, the exact
    total-variation curve t -> d_TV(N(X_t, 2 eps Sigma_t), N(0, 2 eps Sigma))
    on the window t = t_mix + w of `cutoff.cutoff_curve`, the shift profile
    D_eps, and both cut-off profiles.  One CSV per (x0, epsilon) plus a JSON
    summary holding, per curve, the sup-difference, the window points, the
    points whose TV is not "exact" and the largest TV abserr.  The run
    passes when each x0's sup-differences do not grow as epsilon falls and
    every curve has a window point.  The manifest's stages hold, for each
    x0 in order, the seconds of its "spectral", "covariance" and "tv" stages
    (`CutoffRun.seconds`), the "tv" stage with `CutoffRun.tv_counts`.  With
    mc_curve, every curve with a window point gets an ensemble, and each
    `integrate_sde_runs` call steps `runs_per_loop(n_paths)` of them in one
    loop, all of them when their paths fill at most one noise block; each
    batch is dropped once its knn estimates are done.  The stage
    "mc_ensembles" (x0 null) holds the seconds of the calls, their
    loop_steps (each loop's longest ensemble's steps, summed over the loops)
    and their path_steps (paths times steps, summed over the ensembles);
    then each x0's "mc_curve" stage holds the seconds of its knn estimates.  A failed run leaves its manifest with
    status "failed" and the error.
    """
    return _run_pipeline(cfg.config_hash, cfg.out_dir, lambda m: _cutoff_experiment(cfg, m))


def _pipeline_start(cfg: ExperimentConfig, pipeline: str):
    """(spec, stability gate, Sigma) of a pipeline's model, once its epsilons and x0 are present."""
    if not cfg.epsilons or not cfg.x0:
        raise ParameterError(f"{pipeline} needs 'epsilons' and 'x0'")
    spec = spec_from_model_config(cfg.model)
    gate = _gate_stability(spec)
    return spec, gate, sigma_matrix(spec)


def _check_curve_files(cfg: ExperimentConfig):
    """Refuse a config in which two (x0, epsilon) curves would write one CSV file."""
    seen = {}
    for x0 in cfg.x0:
        for eps in cfg.epsilons:
            tag = _curve_tag(x0, eps)
            if tag in seen:
                x1, e1 = seen[tag]
                raise ParameterError(
                    f"the curves of x0 = {x1}, epsilon = {e1!r} and x0 = {x0}, epsilon = {eps!r} "
                    f"would both be written to cutoff_{tag}.csv"
                )
            seen[tag] = (x0, eps)


def _knn_curve(batch, law, steps: np.ndarray, cfg: ExperimentConfig, i_eps: int):
    """(excluded, {step: knn TV estimate}) of one mc_curve ensemble against a sample of its stationary law."""
    ref = law.sample(batch.states.shape[0], np.random.default_rng(cfg.seed + 5000 + i_eps))
    pos = {int(round(t / cfg.dt)): i for i, t in enumerate(batch.grid)}
    return batch.excluded, {
        k: empirical_tv(batch.states[:, pos[k], :], ref, method="classifier_knn", seed=cfg.seed).estimate
        for k in set(steps.tolist())
    }


def _cutoff_experiment(cfg: ExperimentConfig, manifest: RunManifest):
    _check_curve_files(cfg)
    spec, gate, sigma = _pipeline_start(cfg, "cutoff experiment")
    summary = {"gate": gate, "runs": []}
    ok = True
    runs = []
    for x0 in cfg.x0:
        run = cutoff_curve(spec, x0, cfg.epsilons, cfg.w_grid, cfg.dt)
        runs.append(run)
        manifest.stages += [{"x0": list(map(float, x0)), "name": name, "seconds": seconds,
                             **(run.tv_counts if name == "tv" else {})}
                            for name, seconds in run.seconds.items()]
    mc, mc_seconds = {}, [0.0] * len(runs)  # (x0 index, epsilon index) -> (excluded, {step: knn TV})
    if cfg.mc_curve:
        # one ensemble per (x0, epsilon) curve with a window point, seeded by its epsilon's place
        ensembles = [(i_x0, i_eps, (x0, curve.epsilon, cfg.seed + i_eps, curve.step))
                     for i_x0, (x0, run) in enumerate(zip(cfg.x0, runs))
                     for i_eps, curve in enumerate(run.curves) if curve.step.size]
        last_steps = [int(e[2][3].max()) for e in ensembles]
        per_loop = runs_per_loop(cfg.n_paths)
        seconds = 0.0
        for g in range(0, len(ensembles), per_loop):
            group = ensembles[g : g + per_loop]
            clock = time.perf_counter()
            batches = integrate_sde_runs(spec, [e[2] for e in group], cfg.dt, cfg.n_paths)
            seconds += time.perf_counter() - clock
            for i_x0, i_eps, (_, eps, _, steps) in group:
                clock = time.perf_counter()
                # each batch is dropped once its knn estimates are done
                mc[i_x0, i_eps] = _knn_curve(batches.pop(0), stationary_law(sigma, eps), steps, cfg, i_eps)
                mc_seconds[i_x0] += time.perf_counter() - clock
        manifest.stages.append({"x0": None, "name": "mc_ensembles", "seconds": seconds,
                                "loop_steps": sum(max(last_steps[g : g + per_loop])
                                                  for g in range(0, len(ensembles), per_loop)),
                                "path_steps": cfg.n_paths * sum(last_steps)})
    for i_x0, (x0, run) in enumerate(zip(cfg.x0, runs)):
        sd, pl = run.spectral, run.profile
        sup_diffs = []
        for i_eps, curve in enumerate(run.curves):
            eps = curve.epsilon
            empirical = {}
            entry = {"epsilon": eps}
            if (i_x0, i_eps) in mc:
                entry["excluded"], empirical = mc[i_x0, i_eps]
            rows = zip(curve.w, curve.t, [tv.value for tv in curve.tv], curve.D_eps, curve.Lambda_printed,
                       curve.Lambda_alt, [empirical.get(k, float("nan")) for k in curve.step.tolist()])
            csv_path = write_csv(
                os.path.join(cfg.out_dir, f"cutoff_{_curve_tag(x0, eps)}.csv"),
                ["w", "t", "tv_exact", "D_eps", "Lambda_printed", "Lambda_alt", "tv_empirical"],
                rows,
            )
            manifest.artifacts.append(csv_path)
            sup_diffs.append(dict(entry, **curve.summary()))
        if cfg.mc_curve:
            manifest.stages.append({"x0": list(map(float, x0)), "name": "mc_curve", "seconds": mc_seconds[i_x0]})
        diffs = [s["sup_diff"] for s in sup_diffs]
        monotone = all(a >= b - 1e-12 for a, b in zip(diffs, diffs[1:]))
        # a curve without window points has a sup-diff of 0.0 and no evidence
        ok = ok and monotone and all(s["window_points"] for s in sup_diffs)
        summary["runs"].append(
            {
                "x0": list(map(float, x0)),
                "eta": sd.eta,
                "nu": sd.nu,
                "tau": sd.tau,
                "jordan_flagged": sd.flagged,
                "generic_x": sd.generic_x,
                "r_limit": {"exists": pl.exists, "r": pl.r},
                "clamp_events": run.clamp_events,
                "covariance_points": run.covariance_points,
                "sup_diffs": sup_diffs,
                "sup_diff_monotone": monotone,
            }
        )
    summary_path = os.path.join(cfg.out_dir, "cutoff_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.artifacts.append(summary_path)
    manifest.finalize(passed=ok, summary=summary)


def run_stationary_check(cfg: ExperimentConfig) -> RunManifest:
    """Long-horizon ensembles against the Gaussian stationary approximation.

    Per epsilon: simulate to the horizon, compare the terminal cloud with
    samples of N(0, 2 eps Sigma) (moment-matched TV plus a classifier
    estimate), and record E|x|^2 / eps.  Emits one CSV table and a summary
    with the decay verdict, the stability of the fitted variance constant
    and the number of exploded paths excluded at each epsilon.  Every
    ensemble starts from the one point of x0; another count is an error.
    The manifest's stages hold, for each epsilon in order, the seconds of
    its "ensemble" (with its path_steps), "tv_momentmatch" (with the
    reference sample) and "tv_knn" stages.  A failed run leaves its manifest
    with status "failed" and the error.
    """
    return _run_pipeline(cfg.config_hash, cfg.out_dir, lambda m: _stationary_check(cfg, m))


def _stationary_check(cfg: ExperimentConfig, manifest: RunManifest):
    spec, _, sigma = _pipeline_start(cfg, "stationary check")
    if len(cfg.x0) != 1:
        raise ParameterError(f"the stationary check runs from exactly one x0 point; got {len(cfg.x0)}")
    n_steps = int(round(cfg.horizon / cfg.dt))
    if n_steps < 1:
        raise ParameterError(
            f"the stationary check needs at least one step; horizon {cfg.horizon:g} and dt {cfg.dt:g} "
            f"give round(horizon / dt) = {n_steps} steps"
        )
    x0 = np.asarray(cfg.x0[0], dtype=float)
    rows = []
    tvs = []
    cs = []
    excluded = []
    for i, eps in enumerate(cfg.epsilons):
        clock = time.perf_counter()
        batch = integrate_sde(
            spec,
            x0,
            t_end=cfg.horizon,
            dt=cfg.dt,
            n_paths=cfg.n_paths,
            seed=cfg.seed + i,
            epsilon=eps,
            scheme="baoab",
            store_every=n_steps,
        )
        stages = [{"name": "ensemble", "seconds": time.perf_counter() - clock, "path_steps": cfg.n_paths * n_steps}]
        excluded.append(batch.excluded)
        cloud = batch.states[:, -1, :]
        clock = time.perf_counter()
        ref = stationary_law(sigma, eps).sample(
            len(cloud), np.random.default_rng(cfg.seed + 1000 + i)
        )
        mm = empirical_tv(cloud, ref, method="gaussian_momentmatch", seed=cfg.seed)
        stages.append({"name": "tv_momentmatch", "seconds": time.perf_counter() - clock})
        clock = time.perf_counter()
        knn = empirical_tv(cloud, ref, method="classifier_knn", seed=cfg.seed)
        stages.append({"name": "tv_knn", "seconds": time.perf_counter() - clock})
        manifest.stages += [dict(stage, epsilon=eps) for stage in stages]
        mean_sq = float(np.mean(np.sum(cloud**2, axis=1)))
        rows.append((eps, mm.estimate, mm.stderr, knn.estimate, knn.stderr, mean_sq, mean_sq / eps))
        tvs.append(mm.estimate)
        cs.append(mean_sq / eps)
    csv_path = write_csv(
        os.path.join(cfg.out_dir, "stationary_check.csv"),
        ["epsilon", "tv_momentmatch", "tv_mm_stderr", "tv_knn", "tv_knn_stderr", "mean_sq", "c_fit"],
        rows,
    )
    manifest.artifacts.append(csv_path)
    decreasing = all(a >= b - 1e-9 for a, b in zip(tvs, tvs[1:]))
    c_ratio = max(cs) / max(min(cs), 1e-300)
    passed = decreasing and c_ratio < 2.0
    manifest.finalize(
        passed=passed,
        summary={
            "tv_decreasing": decreasing,
            "tv_values": tvs,
            "c_values": cs,
            "c_ratio": c_ratio,
            "excluded": excluded,
        },
    )


# ---------------------------------------------------------------------------
# built-in corpus


_CORPUS_MODELS = {
    # stable, complex spectrum (gamma^2 < 4k)
    "lin1d_complex": {"force": {"type": "linear", "matrix": [[1.0]]}, "gamma": 1.0, "alpha": 2 / 3, "beta": 0.5},
    # stable, real distinct spectrum
    "lin1d_real": {"force": {"type": "linear", "matrix": [[1.0]]}, "gamma": 3.0, "alpha": 2 / 3, "beta": 1.5},
    # critical damping gamma^2 = 4k: one 2x2 Jordan block
    "lin1d_critical": {"force": {"type": "linear", "matrix": [[1.0]]}, "gamma": 2.0, "alpha": 2 / 3, "beta": 1.0},
    # 2-d normal rotation, stable for gamma = 3 (9 > 4)
    "lin2d_rot": {"force": {"type": "linear", "matrix": [[1.0, -2.0], [2.0, 1.0]]}, "gamma": 3.0, "alpha": 0.25, "beta": 2.6},
    # 2-d non-gradient normal model
    "lin2d_nongrad": {"force": {"type": "linear", "matrix": [[1.0, -1.0], [1.0, 1.0]]}, "gamma": 3.0, "alpha": 0.45, "beta": 2.0},
    # 1-d quartic gradient model U = q^4/4 + q^2/2
    "quartic": {"force": {"type": "polynomial_gradient", "coeffs": [0.0, 0.0, 0.5, 0.0, 0.25]}, "gamma": 1.5, "alpha": 2 / 3, "beta": 0.75},
}

#: models whose zero-noise flow is exponentially stable
STABLE_CORPUS = list(_CORPUS_MODELS)

#: unstable companion: same rotation block, friction too weak (1 < 4)
UNSTABLE_MATRIX = [[1.0, -2.0], [2.0, 1.0]]
UNSTABLE_GAMMA = 1.0


def corpus_spec(name: str) -> ModelSpec:
    if name not in _CORPUS_MODELS:
        raise ParameterError(f"unknown corpus model {name!r}; have {sorted(_CORPUS_MODELS)}")
    return spec_from_model_config(_CORPUS_MODELS[name])


def corpus_model_config(name: str) -> dict:
    return json.loads(json.dumps(_CORPUS_MODELS[name]))
