"""Experiment orchestration: config parsing, pipelines, CSV/JSON emission, verification.

Configs are flat JSON with typed keys and an explicit schema version; unknown
keys are errors.  Every run writes a manifest before any long computation
starts and atomically finalizes it at the end.  Curve CSVs are deterministic
byte-for-byte for a fixed config (17 significant digits, fixed column order).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
from scipy.stats import chi2_contingency

from . import __version__
from .covflow import _covariance_rhs, integrate_covariance
from .cutoff import (
    jordan_chains,
    mixing_time,
    oscillating_sum,
    profile_D,
    profile_lambda,
    profile_lambda_alt,
    profile_limit_r,
    spectral_data,
)
from .errors import ParameterError, StabilityError
from .gaussian_tv import Gaussian, tv_gaussian, tv_reduce, tv_unit, tv_unit_linear_bound
from .linear_stability import (
    classify_linear,
    lyapunov_H,
    make_spec,
    rk4_step,
    skew_part,
    symmetric_part,
    verify_exponential_stability,
)
from .matrix_eq import (
    drift_metric,
    lyapunov_quadrature,
    sigma_matrix,
    solve_lyapunov_stable,
)
from .model import (
    ModelSpec,
    central_difference_jacobian,
    check_assumption_main,
    drift_matrix,
    force_from_config,
    noise_matrix,
)
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
    if not isinstance(value, types):
        raise ParameterError(f"config key {name!r} has type {type(value).__name__}")
    return value


def validate_config(raw: dict) -> ExperimentConfig:
    """Strict validation: unknown keys are errors, every epsilon in (0, 1/2),
    dt > 0, horizon > 0, n_paths >= 1, a w_grid with min <= max and step > 0,
    and the seed must be explicit (no wall-clock defaults)."""
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
    epsilons = [float(e) for e in raw.get("epsilons", [])]
    for e in epsilons:
        if not (0.0 < e < 0.5):
            raise ParameterError(f"every epsilon must lie in (0, 1/2); got {e}")
    w_grid = dict(raw.get("w_grid", {"min": -6.0, "max": 6.0, "step": 0.25}))
    if set(w_grid) != _WGRID_KEYS:
        raise ParameterError(f"w_grid needs exactly the keys max, min, step; got {sorted(w_grid)}")
    w_grid = {key: float(v) for key, v in w_grid.items()}
    if not (w_grid["step"] > 0 and w_grid["max"] >= w_grid["min"]):
        raise ParameterError("w_grid needs step > 0 and max >= min")
    dt = float(raw.get("dt", 0.005))
    if dt <= 0:
        raise ParameterError("dt must be positive")
    horizon = float(raw.get("horizon", 40.0))
    if not horizon > 0:
        raise ParameterError("horizon must be positive")
    n_paths = int(raw.get("n_paths", 10000))
    if n_paths < 1:
        raise ParameterError("n_paths must be at least 1")
    x0 = [list(map(float, v)) for v in raw.get("x0", [])]
    cfg = ExperimentConfig(
        raw=raw,
        model=model,
        epsilons=epsilons,
        x0=x0,
        w_grid=w_grid,
        dt=dt,
        horizon=horizon,
        n_paths=n_paths,
        seed=int(raw["seed"]),
        mc_curve=bool(raw.get("mc_curve", False)),
        out_dir=str(raw.get("out_dir", "langmix_out")),
    )
    return cfg


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
        payload = {
            "config_hash": self.config_hash,
            "code_version": self.code_version,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_clock": self.wall_clock,
            "status": self.status,
            "artifacts": self.artifacts,
            "passed": self.passed,
            "summary": self.summary,
        }
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


def _start_manifest(config_hash: str, out_dir: str) -> RunManifest:
    manifest = RunManifest(
        config_hash=config_hash,
        code_version=__version__,
        started_at=time.time(),
        out_dir=out_dir,
    )
    manifest.write()
    return manifest


def _run_pipeline(config_hash: str, out_dir: str, body: Callable) -> RunManifest:
    """Run body(manifest); an exception finalizes the manifest as failed and propagates."""
    manifest = _start_manifest(config_hash, out_dir)
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
            cells = []
            for v in row:
                if isinstance(v, (float, np.floating)):
                    cells.append(f"{float(v):.17g}")
                else:
                    cells.append(str(v))
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
# built-in corpus and the invariant verification suite


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


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.margin = float(self.margin)


#: random cases drawn by the randomized checks of the verification suite
_LINEAR_EQUIVALENCE_CASES = 60
_SPECTRAL_CONSISTENCY_CASES = 300
_COMMUTATOR_CASES = 200
_NORMAL_EQUIVALENCE_CASES = 150
_SUFFICIENCY_CASES = 200
_TV_TRIANGLE_CASES = 12


def _check_fd_convergence() -> CheckResult:
    spec = corpus_spec("quartic")
    q = np.array([0.7])
    exact = np.asarray(spec.force.eval_DF(q)).reshape(1, 1)
    errs = []
    for h in (1e-3, 5e-4):
        fd = central_difference_jacobian(spec.force.eval_F, q, h)
        errs.append(float(np.abs(fd - exact).max()))
    ratio = errs[0] / max(errs[1], 1e-300)
    return CheckResult("model.fd_order2", 3.5 <= ratio <= 4.5, ratio, f"halving ratio {ratio:.2f}")


def _random_real_normal(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random real normal matrix: orthogonal conjugation of 2x2 rotation blocks."""
    blocks = []
    k = d
    while k >= 2:
        a, b = rng.uniform(-1.0, 2.0), rng.uniform(-3.0, 3.0)
        blocks.append(np.array([[a, -b], [b, a]]))
        k -= 2
    if k == 1:
        blocks.append(np.array([[rng.uniform(-1.0, 2.0)]]))
    O = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return O @ sla.block_diag(*blocks) @ O.T


def _certificate_exists(force, gamma: float) -> bool:
    """Scan a small (alpha, beta) grid for a sampled coercivity certificate."""
    for bfrac in (0.5, 0.8, 0.95, 0.99):
        for alpha in (1e-3, 1e-2, 0.1, 0.3, 0.6):
            try:
                s = make_spec(force, gamma, alpha=alpha, beta=bfrac * gamma)
            except ParameterError:
                continue
            if check_assumption_main(s, radius=2.0, n_samples=128).holds_on_samples:
                return True
    return False


def _check_linear_case_equivalence() -> CheckResult:
    rng = np.random.default_rng(5)
    bad = 0
    for _ in range(_LINEAR_EQUIVALENCE_CASES):
        d = int(rng.integers(1, 4))
        M = _random_real_normal(rng, d)
        gamma = rng.uniform(0.5, 3.0)
        verdict = classify_linear(M, gamma)
        if verdict.indeterminate:
            continue
        force = force_from_config({"type": "linear", "matrix": M.tolist()})
        if _certificate_exists(force, gamma) != verdict.stable:
            bad += 1
    return CheckResult(
        "model.linear_case_equivalence",
        bad == 0,
        float(bad),
        f"{bad} disagreements of {_LINEAR_EQUIVALENCE_CASES}",
    )


def _check_spectral_consistency() -> CheckResult:
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(_SPECTRAL_CONSISTENCY_CASES):
        d = int(rng.integers(1, 5))
        M = rng.standard_normal((d, d)) * rng.uniform(0.3, 2.0)
        gamma = rng.uniform(0.2, 4.0)
        v = classify_linear(M, gamma)
        if v.indeterminate:
            continue
        checked += 1
        trace = {c.name: c.satisfied for c in v.criterion_trace}
        if trace["spectrum_in_parabola"] != trace["eigencheck_T_M"]:
            return CheckResult("linear.spectral_consistency", False, 0.0, "criteria disagree")
    return CheckResult("linear.spectral_consistency", True, float(checked), f"{checked} matrices agree")


def _check_commutator_sign() -> CheckResult:
    rng = np.random.default_rng(12)
    worst = np.inf
    for _ in range(_COMMUTATOR_CASES):
        d = int(rng.integers(2, 5))
        M = rng.standard_normal((d, d))
        S, A = symmetric_part(M), skew_part(M)
        C = A @ S - S @ A
        vals, vecs = np.linalg.eig(M)
        for i in range(d):
            w = vecs[:, i]
            w = w / np.linalg.norm(w)
            val = float(np.real(np.conj(w) @ (C @ w)))
            worst = min(worst, val)
    return CheckResult("linear.commutator_nonneg", worst >= -1e-9, worst, f"min {worst:.2e}")


def _check_normal_equivalence() -> CheckResult:
    rng = np.random.default_rng(13)
    for _ in range(_NORMAL_EQUIVALENCE_CASES):
        d = int(rng.integers(1, 5))
        M = _random_real_normal(rng, d)
        gamma = rng.uniform(0.3, 3.0)
        v = classify_linear(M, gamma)
        if v.indeterminate:
            continue
        suff = gamma**2 * symmetric_part(M) + skew_part(M) @ skew_part(M)
        pd = bool(np.min(np.linalg.eigvalsh(0.5 * (suff + suff.T))) > 0)
        if pd != v.stable:
            return CheckResult("linear.normal_equivalence", False, 0.0, "mismatch")
    return CheckResult("linear.normal_equivalence", True, float(_NORMAL_EQUIVALENCE_CASES), "all agree")


def _check_sufficiency_oneway() -> CheckResult:
    rng = np.random.default_rng(14)
    for _ in range(_SUFFICIENCY_CASES):
        d = int(rng.integers(1, 5))
        M = rng.standard_normal((d, d))
        gamma = rng.uniform(0.2, 4.0)
        suff = gamma**2 * symmetric_part(M) + skew_part(M) @ skew_part(M)
        if np.min(np.linalg.eigvalsh(0.5 * (suff + suff.T))) > 1e-10:
            v = classify_linear(M, gamma)
            if not v.stable:
                return CheckResult("linear.sufficiency_oneway", False, 0.0, "counterexample")
    return CheckResult("linear.sufficiency_oneway", True, float(_SUFFICIENCY_CASES), "no counterexample")


def _check_lyapunov_decay() -> CheckResult:
    worst = 0.0
    for name in STABLE_CORPUS:
        spec = corpus_spec(name)
        x0 = np.full(2 * spec.dim, 0.6)
        rep = verify_exponential_stability(spec, x0, t_end=8.0, dt=1e-3)
        h0 = float(lyapunov_H(spec, x0))
        worst = max(worst, rep.max_violation / max(h0, 1e-300))
        if not rep.monotone:
            return CheckResult("linear.lyapunov_decay", False, worst, f"{name} violates")
    return CheckResult("linear.lyapunov_decay", worst <= 1e-7, worst, f"worst rel violation {worst:.2e}")


def _check_spd_corpus() -> CheckResult:
    worst = np.inf
    for name in STABLE_CORPUS:
        spec = corpus_spec(name)
        sig = sigma_matrix(spec)
        dm = drift_metric(spec)
        worst = min(worst, np.min(np.linalg.eigvalsh(sig)), np.min(np.linalg.eigvalsh(dm.gamma_matrix)))
    return CheckResult("matrix_eq.sigma_gamma_pd", worst > 0, worst, f"min eig {worst:.2e}")


def _check_quadrature_decay() -> CheckResult:
    spec = corpus_spec("lin1d_real")
    A = drift_matrix(spec, np.zeros(1))
    J = noise_matrix(1)
    X = solve_lyapunov_stable(A, J, orientation="right").X
    eta = -float(np.max(np.linalg.eigvals(A).real))
    Ts = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    errs = [np.linalg.norm(X - lyapunov_quadrature(A, J, T, orientation="right"), "fro") for T in Ts]
    slope = np.polyfit(Ts, np.log(np.maximum(errs, 1e-300)), 1)[0]
    rate = -float(slope)
    rel = abs(rate - 2 * eta) / (2 * eta)
    return CheckResult("matrix_eq.quadrature_decay_rate", rel <= 0.2, rel, f"rate {rate:.3f} vs {2*eta:.3f}")


def _check_tv_triangle() -> CheckResult:
    rng = np.random.default_rng(20)
    for _ in range(_TV_TRIANGLE_CASES):
        dim = int(rng.integers(1, 3))
        gs = []
        for _ in range(3):
            A = rng.standard_normal((dim, dim))
            gs.append(Gaussian(rng.standard_normal(dim), A @ A.T + 0.2 * np.eye(dim)))
        tv = lambda a, b: tv_gaussian(a, b, method="cdf_quadrature").value
        if tv(gs[0], gs[2]) > tv(gs[0], gs[1]) + tv(gs[1], gs[2]) + 1e-8:
            return CheckResult("gaussian_tv.triangle", False, 0.0, "violated")
    return CheckResult("gaussian_tv.triangle", True, float(_TV_TRIANGLE_CASES), "holds on random triples")


def _check_tv_unit_shape() -> CheckResult:
    xs = np.linspace(0.0, 8.0, 200)
    vals = np.array([tv_unit(np.array([x])) for x in xs])
    mono = bool(np.all(np.diff(vals) > -1e-15))
    bound = bool(all(tv_unit(np.array([x])) <= tv_unit_linear_bound(np.array([x])) + 1e-15 for x in xs))
    return CheckResult("gaussian_tv.unit_monotone_bounded", mono and bound, float(vals[-1]), "")


def _check_tv_reduce_idempotent() -> CheckResult:
    rng = np.random.default_rng(21)
    m = rng.standard_normal(2)
    A = rng.standard_normal((2, 2))
    C = A @ A.T + 0.3 * np.eye(2)
    g1 = Gaussian(m, C)
    g2 = Gaussian(np.zeros(2), np.eye(2))
    m2, C2 = tv_reduce(g1, g2)
    err = max(np.abs(m2 - m).max(), np.abs(C2 - C).max())
    return CheckResult("gaussian_tv.reduce_idempotent", err <= 1e-12, err, f"err {err:.2e}")


def _check_covflow_psd_and_oracle() -> CheckResult:
    spec = corpus_spec("lin1d_complex")
    path = integrate_covariance(spec, np.array([0.6, 0.2]), 6.0, 0.002)
    if path.clamp_events > 0:
        return CheckResult("covflow.psd_clamp_free", False, float(path.clamp_events), "clamps happened")
    A = drift_matrix(spec, np.zeros(1))
    J = noise_matrix(1)
    worst = 0.0
    for t in (1.0, 3.0, 6.0):
        Xq = lyapunov_quadrature(A, J, t, orientation="right", n_intervals=2000)
        _, c = path.at(t)
        worst = max(worst, float(np.abs(c - Xq).max()))
    return CheckResult("covflow.ode_vs_quadrature", worst <= 1e-8, worst, f"max err {worst:.2e}")


def _check_covflow_rk4_oracle() -> CheckResult:
    spec = corpus_spec("quartic")
    x0 = np.array([0.8, 0.1])
    path = integrate_covariance(spec, x0, 2.0, 2.0)
    y = np.concatenate([x0, np.zeros(4)])
    for _ in range(4000):  # fixed-step RK4 oracle at dt = 5e-4 to t = 2
        y = rk4_step(lambda v: _covariance_rhs(spec, v), y, 5e-4)
    err = max(np.abs(path.states[-1] - y[:2]).max(), np.abs(path.covs[-1] - y[2:].reshape(2, 2)).max())
    return CheckResult("covflow.rk4_oracle", err <= 1e-9, err, f"max err {err:.2e}")


def _check_cutoff_linearized_decay() -> CheckResult:
    worst_final = 0.0
    for name in ("lin1d_real", "lin1d_critical", "lin2d_rot"):
        spec = corpus_spec(name)
        sd = spectral_data(spec, np.full(2 * spec.dim, 0.5))
        A = drift_matrix(spec, np.zeros(spec.dim))
        x = sd.expansion_point
        errs = []
        for t in (20.0, 40.0, 80.0):
            lhs = math.exp(sd.eta * t) * (sla.expm(A * t) @ x) / t**sd.nu
            errs.append(float(np.linalg.norm(lhs - oscillating_sum(sd, t))))
        # Jordan blocks make the remainder decay like 1/t, so require decay
        # toward zero rather than a fixed small value at one time.
        if not (errs[2] <= 0.6 * errs[0] + 1e-12 and errs[2] <= 2e-2):
            return CheckResult("cutoff.linearized_decay", False, errs[2], name)
        worst_final = max(worst_final, errs[2])
    return CheckResult(
        "cutoff.linearized_decay", True, worst_final, f"final residual {worst_final:.2e}"
    )


def _check_cutoff_profile_cauchy() -> CheckResult:
    spec = corpus_spec("lin1d_real")
    sd = spectral_data(spec, np.array([0.6, 0.4]))
    ws = np.linspace(-4, 4, 17)
    worst = 0.0
    prev = None
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        vals = np.array([profile_D(spec, sd, mixing_time(sd, eps) + w, eps) for w in ws])
        if prev is not None:
            worst = max(worst, float(np.abs(vals - prev).max()))
        prev = vals
    return CheckResult("cutoff.profile_cauchy", worst < 5e-3, worst, f"max diff {worst:.2e}")


def _check_jordan_robustness() -> CheckResult:
    rng = np.random.default_rng(30)
    for name in ("lin1d_real", "lin1d_complex", "lin2d_rot"):
        spec = corpus_spec(name)
        sd = spectral_data(spec, np.full(2 * spec.dim, 0.5))
        A = drift_matrix(spec, np.zeros(spec.dim))
        for _ in range(3):
            E = rng.standard_normal(A.shape) * 1e-12
            chains, _ = jordan_chains(A + E)
            eta2 = min(-c.eigenvalue.real for c in chains)
            if abs(eta2 - sd.eta) > 1e-8:
                return CheckResult("cutoff.jordan_robustness", False, abs(eta2 - sd.eta), name)
    return CheckResult("cutoff.jordan_robustness", True, 0.0, "eta stable under 1e-12 noise")


def _check_coupling_and_seed() -> CheckResult:
    spec = corpus_spec("lin1d_complex")
    eps = 0.01
    x0 = np.array([0.5, 0.1])
    kw = dict(epsilon=eps, scheme="euler_maruyama", store_every=20)
    b1 = integrate_sde(spec, x0, 1.0, 0.005, 256, seed=4, couple_fluctuation=True, **kw)
    z = b1.coupled["Z"]
    recon = b1.coupled["ode"][None, :, :] + math.sqrt(2 * eps) * b1.coupled["Y"]
    exact = float(np.abs(z - recon).max())
    b2 = integrate_sde(spec, x0, 1.0, 0.005, 256, seed=5, **kw)
    b3 = integrate_sde(spec, x0, 1.0, 0.005, 256, seed=4, **kw)
    differs = not np.array_equal(b1.states, b2.states)
    matches = np.array_equal(b1.states, b3.states)
    ok = exact == 0.0 and differs and matches
    return CheckResult("simulate.coupling_and_seeding", ok, exact, "")


def _check_weak_order() -> CheckResult:
    spec = corpus_spec("lin1d_complex")
    # small noise level keeps the Monte Carlo floor below the finest-step bias
    eps = 1e-6
    x0 = np.array([0.8, 0.0])
    A = drift_matrix(spec, np.zeros(1))
    ref = sla.expm(A * 1.0) @ x0
    rates = {}
    for scheme in ("euler_maruyama", "baoab"):
        errs = []
        dts = (0.25, 0.125, 0.0625)
        for dt in dts:
            b = integrate_sde(spec, x0, 1.0, dt, 32768, seed=2, epsilon=eps, scheme=scheme,
                              store_every=int(round(1.0 / dt)))
            errs.append(np.linalg.norm(b.states[:, -1, :].mean(axis=0) - ref))
        rates[scheme] = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = abs(rates["euler_maruyama"] - 1.0) <= 0.3 and abs(rates["baoab"] - 2.0) <= 0.3
    return CheckResult(
        "simulate.weak_order",
        ok,
        rates["baoab"],
        f"em {rates['euler_maruyama']:.2f}, baoab {rates['baoab']:.2f}",
    )


def _check_gibbs_stationarity() -> CheckResult:
    spec = corpus_spec("quartic")
    eps = 0.05
    n = 40000
    batch = integrate_sde(spec, np.array([0.3, 0.0]), 25.0, 0.01, n, seed=9, epsilon=eps,
                          scheme="baoab", store_every=2500)
    cloud = batch.states[:, -1, :]
    v_sim = 0.5 * cloud[:, 1] ** 2 + np.asarray(spec.force.eval_U(cloud[:, :1]))
    # direct Gibbs sampler: p gaussian, q by rejection against exp(-gamma U / eps)
    rng = np.random.default_rng(77)
    p = rng.normal(0.0, math.sqrt(eps / spec.gamma), n)
    qs = []
    scale = math.sqrt(eps / spec.gamma)
    while len(qs) < n:
        cand = rng.normal(0.0, scale, 4 * n)
        u_extra = cand**4 / 4.0
        acc = rng.random(4 * n) < np.exp(-spec.gamma * u_extra / eps)
        qs.extend(cand[acc][: n - len(qs)])
    q = np.asarray(qs[:n])
    v_ref = 0.5 * p**2 + q**2 / 2.0 + q**4 / 4.0
    hi = np.quantile(np.concatenate([v_sim, v_ref]), 0.999)
    bins = np.linspace(0.0, hi, 30)
    h1, _ = np.histogram(v_sim, bins)
    h2, _ = np.histogram(v_ref, bins)
    keep = (h1 + h2) > 10
    _, pval, _, _ = chi2_contingency(np.vstack([h1[keep] + 1, h2[keep] + 1]))
    return CheckResult("simulate.gibbs_stationarity", pval > 0.01, pval, f"chi2 p={pval:.3f}")


def _check_cutoff_curve_vs_empirical() -> CheckResult:
    spec = corpus_spec("lin1d_complex")
    eps = 0.01
    x0 = np.array([0.6, 0.3])
    sigma = sigma_matrix(spec)
    path = integrate_covariance(spec, x0, 8.0, 0.005)
    batch = integrate_sde(spec, x0, 8.0, 0.005, 20000, seed=31, epsilon=eps, scheme="baoab",
                          store_every=200)
    rng = np.random.default_rng(99)
    worst = 0.0
    for i, t in enumerate(batch.grid):
        if t < 1.0:
            continue
        mean, cov_t = path.at(float(t))
        exact = exact_gaussian_tv_curve_point(mean, cov_t, sigma, eps)
        ref = Gaussian(np.zeros(2), 2 * eps * sigma).sample(20000, rng)
        # the linear model is exactly Gaussian in law, so moment matching is sharp
        est = empirical_tv(batch.states[:, i, :], ref, method="gaussian_momentmatch", seed=31)
        gap = abs(est.estimate - exact)
        worst = max(worst, gap - 3 * est.stderr)
    return CheckResult("simulate.curve_vs_empirical", worst <= 0.0, worst, f"worst excess {worst:.3f}")


def _check_harness_determinism(tmpdir: str) -> CheckResult:
    cfg_raw = {
        "schema_version": 1,
        "model": corpus_model_config("lin1d_real"),
        "epsilons": [1e-2, 1e-3],
        "x0": [[0.6, 0.4]],
        "w_grid": {"min": -3.0, "max": 3.0, "step": 0.5},
        "dt": 0.01,
        "seed": 7,
        "out_dir": os.path.join(tmpdir, "det_a"),
    }
    m1 = run_cutoff_experiment(validate_config(json.loads(json.dumps(cfg_raw))))
    cfg_raw["out_dir"] = os.path.join(tmpdir, "det_b")
    m2 = run_cutoff_experiment(validate_config(json.loads(json.dumps(cfg_raw))))
    csvs1 = sorted(a for a in m1.artifacts if a.endswith(".csv"))
    csvs2 = sorted(a for a in m2.artifacts if a.endswith(".csv"))
    same = all(
        open(a, "rb").read() == open(b, "rb").read() for a, b in zip(csvs1, csvs2)
    )
    complete = all(os.path.exists(a) for a in m1.artifacts)
    listed = set(os.path.basename(a) for a in m1.artifacts) | {"run_manifest.json"}
    on_disk = set(os.listdir(os.path.join(tmpdir, "det_a")))
    no_orphans = on_disk <= listed
    ok = same and complete and no_orphans
    return CheckResult("harness.determinism_and_manifest", ok, float(same), "")


def verify_suite(cfg: Optional[ExperimentConfig] = None, out_dir: Optional[str] = None) -> RunManifest:
    """Run every module's invariant checks on the built-in corpus.

    Check failures are report entries, not exceptions.  Returns a manifest
    whose summary lists each check with its pass flag and margin.  An
    exception outside the checks leaves the manifest with status "failed"
    and the error.
    """
    out = out_dir or (cfg.out_dir if cfg else "langmix_verify")
    return _run_pipeline(cfg.config_hash if cfg else "builtin", out, _verify)


def _verify(manifest: RunManifest):
    with tempfile.TemporaryDirectory() as tmp:
        checks: list[Callable[[], CheckResult]] = [
            _check_fd_convergence,
            _check_linear_case_equivalence,
            _check_spectral_consistency,
            _check_commutator_sign,
            _check_normal_equivalence,
            _check_sufficiency_oneway,
            _check_lyapunov_decay,
            _check_spd_corpus,
            _check_quadrature_decay,
            _check_tv_triangle,
            _check_tv_unit_shape,
            _check_tv_reduce_idempotent,
            _check_covflow_psd_and_oracle,
            _check_covflow_rk4_oracle,
            _check_cutoff_linearized_decay,
            _check_cutoff_profile_cauchy,
            _check_jordan_robustness,
            _check_coupling_and_seed,
            _check_weak_order,
            _check_gibbs_stationarity,
            _check_cutoff_curve_vs_empirical,
            lambda: _check_harness_determinism(tmp),
        ]
        results = []
        for fn in checks:
            try:
                results.append(fn())
            except Exception as exc:  # a crashed check is a failed check
                name = getattr(fn, "__name__", "anonymous_check")
                results.append(CheckResult(name, False, float("nan"), f"crashed: {exc!r}"))
    rows = [(r.name, int(r.passed), r.margin, r.detail) for r in results]
    csv_path = write_csv(os.path.join(manifest.out_dir, "verify_report.csv"), ["check", "passed", "margin", "detail"], rows)
    manifest.artifacts.append(csv_path)
    passed = all(r.passed for r in results)
    manifest.finalize(
        passed=passed,
        summary={"checks": [{"name": r.name, "passed": r.passed, "margin": r.margin, "detail": r.detail} for r in results]},
    )
