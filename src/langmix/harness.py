"""Experiment orchestration: config parsing, pipelines, CSV/JSON emission, the model corpus.

Configs are flat JSON with typed keys and an explicit schema version;
unknown keys and malformed values are errors.  Every run writes a manifest
before any long computation starts and atomically finalizes it at the end.
Curve CSVs are deterministic byte-for-byte for a fixed config (17
significant digits, fixed column order).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import __version__
from .covflow import integrate_covariance
from .cutoff import mixing_time, profile_D, profile_lambda, profile_lambda_alt, profile_limit_r, spectral_data
from .errors import ParameterError, StabilityError
from .gaussian_tv import Gaussian, tv_gaussian
from .linear_stability import classify_linear, make_spec
from .matrix_eq import sigma_matrix
from .model import ModelSpec, check_assumption_main, force_from_config
from .simulate import empirical_tv, integrate_sde

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

    Every number is finite, every epsilon in (0, 1/2), dt > 0, horizon > 0,
    n_paths an integer >= 1, a w_grid with min <= max and step > 0, x0 a list
    of points, mc_curve a bool, and the seed must be an explicit integer (no
    wall-clock defaults)."""
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
    epsilons = [_finite(e, "epsilons") for e in _expect_type(raw.get("epsilons", []), list, "epsilons")]
    for e in epsilons:
        if not (0.0 < e < 0.5):
            raise ParameterError(f"every epsilon must lie in (0, 1/2); got {e}")
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
    if n_paths < 1:
        raise ParameterError("n_paths must be at least 1")
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
        seed=_expect_type(raw["seed"], int, "seed"),
        mc_curve=_expect_type(raw.get("mc_curve", False), bool, "mc_curve"),
        out_dir=str(raw.get("out_dir", "langmix_out")),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return validate_config(json.load(fh))


def spec_from_model_config(model: dict) -> ModelSpec:
    force = force_from_config(model["force"])
    return make_spec(
        force,
        gamma=float(model["gamma"]),
        alpha=float(model["alpha"]),
        beta=float(model["beta"]),
    )


@dataclass
class RunManifest:
    """Run metadata; written before long work starts, finalized atomically."""

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
    """Deterministic CSV: fixed column order, 17-significant-digit floats."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")
    return path


# Radius of the ball on which the coercivity assumption of a nonlinear model is sampled.
_ASSUMPTION_RADIUS = 3.0


def _gate_stability(spec: ModelSpec):
    """Refuse to run cut-off pipelines on unstable models."""
    if spec.force.kind == "linear":
        verdict = classify_linear(spec.force.matrix, spec.gamma)
        if not verdict.stable or verdict.indeterminate:
            raise StabilityError(
                "model failed the linear stability classification: "
                + json.dumps(verdict.to_dict())
            )
        return {"kind": "linear", "verdict": verdict.to_dict()}
    report = check_assumption_main(spec, radius=_ASSUMPTION_RADIUS, n_samples=512)
    if not report.holds_on_samples:
        raise StabilityError(
            f"coercivity assumption failed on samples: worst margin "
            f"{report.worst_margin:.3e} at {report.worst_point}"
        )
    return {
        "kind": "sampled_assumption",
        "worst_margin": report.worst_margin,
        "radius": _ASSUMPTION_RADIUS,
    }


def exact_gaussian_tv_curve_point(
    mean: np.ndarray, cov_t: np.ndarray, sigma: np.ndarray, epsilon: float
):
    """d_TV(N(mean, 2 eps cov_t), N(0, 2 eps sigma)) with the best available method."""
    g1 = Gaussian(mean=mean, cov=2.0 * epsilon * cov_t)
    g2 = Gaussian(mean=np.zeros_like(mean), cov=2.0 * epsilon * sigma)
    if g1.dim <= 2:
        return tv_gaussian(g1, g2, method="cdf_quadrature").value
    return tv_gaussian(g1, g2, method="monte_carlo", n=200_000, seed=0).value


def run_cutoff_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Exact Gaussian cut-off curves, shift profiles, and their sup-differences.

    For each (epsilon, x0): the mixing time from the spectral data, the exact
    total-variation curve t -> d_TV(N(X_t, 2 eps Sigma_t), N(0, 2 eps Sigma))
    on the window grid t = t_mix + w (clipped to t > 0), the shift profile
    D_eps, and both cut-off profiles.  One CSV per (x0, epsilon) plus a JSON
    summary holding the sup-differences.  A failed run leaves its manifest
    with status "failed" and the error.
    """
    return _run_pipeline(cfg.config_hash, cfg.out_dir, lambda m: _cutoff_experiment(cfg, m))


def _cutoff_experiment(cfg: ExperimentConfig, manifest: RunManifest):
    if not cfg.epsilons or not cfg.x0:
        raise ParameterError("cutoff experiment needs 'epsilons' and 'x0'")
    spec = spec_from_model_config(cfg.model)
    gate = _gate_stability(spec)
    sigma = sigma_matrix(spec)
    w = np.arange(cfg.w_grid["min"], cfg.w_grid["max"] + 1e-12, cfg.w_grid["step"])

    summary = {"gate": gate, "runs": []}
    ok = True
    for x0 in cfg.x0:
        x0 = np.asarray(x0, dtype=float)
        sd = spectral_data(spec, x0)
        pl = profile_limit_r(spec, sd)
        tmix = {e: mixing_time(sd, e) for e in cfg.epsilons}
        t_max = max(tmix.values()) + cfg.w_grid["max"] + 1.0
        path = integrate_covariance(spec, x0, t_max, cfg.dt)
        t_floor = max(sd.tau, 4 * cfg.dt)

        sup_diffs = []
        for i_eps, eps in enumerate(cfg.epsilons):
            # snap window times to the integration grid so the covariance
            # values carry no interpolation error
            steps = []
            for wi in w:
                k = int(round((tmix[eps] + wi) / cfg.dt))
                if k * cfg.dt >= t_floor and k * cfg.dt <= t_max:
                    steps.append((wi, k))
            empirical = {}
            if cfg.mc_curve and steps:
                batch = integrate_sde(
                    spec,
                    x0,
                    t_end=max(k for _, k in steps) * cfg.dt,
                    dt=cfg.dt,
                    n_paths=cfg.n_paths,
                    seed=cfg.seed + i_eps,
                    epsilon=eps,
                    scheme="baoab",
                    store_indices=[k for _, k in steps],
                )
                ref = Gaussian(np.zeros(2 * spec.dim), 2.0 * eps * sigma).sample(
                    batch.states.shape[0], np.random.default_rng(cfg.seed + 5000 + i_eps)
                )
                stored = np.unique(np.concatenate([[0], [k for _, k in steps]]))
                pos = {int(s): i for i, s in enumerate(stored)}
                for _, k in steps:
                    if k not in empirical:
                        est = empirical_tv(
                            batch.states[:, pos[k], :], ref, method="classifier_knn", seed=cfg.seed
                        )
                        empirical[k] = est.estimate
            rows = []
            sup_diff = 0.0
            for wi, k in steps:
                t = k * cfg.dt
                mean, cov_t = path.at(t)
                curve = exact_gaussian_tv_curve_point(mean, cov_t, sigma, eps)
                d_eps = profile_D(spec, sd, t, eps)
                lam_printed = float(profile_lambda(sd, wi))
                lam_alt = float(profile_lambda_alt(sd, wi, pl.r)) if pl.exists else float("nan")
                rows.append((wi, t, curve, d_eps, lam_printed, lam_alt, empirical.get(k, float("nan"))))
                sup_diff = max(sup_diff, abs(curve - d_eps))
            tag = f"x{'_'.join(f'{v:g}' for v in x0)}_eps{eps:g}"
            csv_path = write_csv(
                os.path.join(cfg.out_dir, f"cutoff_{tag}.csv"),
                ["w", "t", "tv_exact", "D_eps", "Lambda_printed", "Lambda_alt", "tv_empirical"],
                rows,
            )
            manifest.artifacts.append(csv_path)
            sup_diffs.append({"epsilon": eps, "sup_diff": sup_diff, "t_mix": tmix[eps]})
        diffs = [s["sup_diff"] for s in sup_diffs]
        monotone = all(a >= b - 1e-12 for a, b in zip(diffs, diffs[1:]))
        ok = ok and monotone
        summary["runs"].append(
            {
                "x0": list(map(float, x0)),
                "eta": sd.eta,
                "nu": sd.nu,
                "tau": sd.tau,
                "r_limit": {"exists": pl.exists, "r": pl.r},
                "clamp_events": path.clamp_events,
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
    with the decay verdict and the stability of the fitted variance constant.
    A failed run leaves its manifest with status "failed" and the error.
    """
    return _run_pipeline(cfg.config_hash, cfg.out_dir, lambda m: _stationary_check(cfg, m))


def _stationary_check(cfg: ExperimentConfig, manifest: RunManifest):
    if not cfg.epsilons or not cfg.x0:
        raise ParameterError("stationary check needs 'epsilons' and 'x0'")
    x0 = np.asarray(cfg.x0[0], dtype=float)
    spec = spec_from_model_config(cfg.model)
    _gate_stability(spec)
    sigma = sigma_matrix(spec)
    rows = []
    tvs = []
    cs = []
    for i, eps in enumerate(cfg.epsilons):
        batch = integrate_sde(
            spec,
            x0,
            t_end=cfg.horizon,
            dt=cfg.dt,
            n_paths=cfg.n_paths,
            seed=cfg.seed + i,
            epsilon=eps,
            scheme="baoab",
            store_every=max(1, int(round(cfg.horizon / cfg.dt))),
        )
        cloud = batch.states[:, -1, :]
        ref = Gaussian(np.zeros(2 * spec.dim), 2.0 * eps * sigma).sample(
            len(cloud), np.random.default_rng(cfg.seed + 1000 + i)
        )
        mm = empirical_tv(cloud, ref, method="gaussian_momentmatch", seed=cfg.seed)
        knn = empirical_tv(cloud, ref, method="classifier_knn", seed=cfg.seed)
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
    "quartic": {"force": {"type": "builtin", "name": "quartic_well"}, "gamma": 1.5, "alpha": 2 / 3, "beta": 0.75},
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
