"""The invariant checks behind the paper's claims, in one registry.

`CHECKS` is the one home of each invariant: an ordered mapping from a check's
name to a zero-argument function that returns a `CheckResult`.  The name is
written only as the registry key.  `langmix verify` runs the registry through
`verify_suite`, and `tests/test_checks.py` runs each entry as one test, so
every case, seed and tolerance of an invariant lives in its check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.special import chdtrc

from .covflow import _covariance_rhs, _ode_path, integrate_covariance
from .cutoff import (curve_point_tv, jordan_chains, mixing_time, oscillating_sum, profile_D, spectral_data,
                     stationary_law)
from .errors import ParameterError
from .gaussian_tv import (
    TV_TOL, Gaussian, _llr_terms, _tv_cdf_2d, _tv_gil_pelaez, _whiten, tv_gaussian, tv_unit, tv_unit_linear_bound,
)
from .harness import (
    STABLE_CORPUS, RunManifest, _run_pipeline, corpus_model_config, corpus_spec, run_cutoff_experiment,
    validate_config, write_csv,
)
from .linear_stability import (
    classify_linear, lyapunov_H, skew_part, symmetric_part, verify_exponential_stability,
)
from .matrix_eq import drift_metric, lyapunov_quadrature, sigma_matrix, solve_lyapunov_stable
from .model import (
    ModelSpec, central_difference_jacobian, check_assumption_main, drift_matrix, force_from_config, noise_matrix,
)
from .simulate import empirical_tv, integrate_sde


@dataclass
class CheckResult:
    passed: bool
    margin: float
    detail: str = ""


#: random cases drawn by the randomized checks
_LINEAR_EQUIVALENCE_CASES = 60
_SPECTRAL_CONSISTENCY_CASES = 300
_COMMUTATOR_CASES = 200
_NORMAL_EQUIVALENCE_CASES = 150
_SUFFICIENCY_CASES = 200
_TV_TRIANGLE_CASES = 12
_TV_TRIANGLE_PLANAR_CASES = 10
_TV_SLICER_CASES = 20
_TV_TRIANGLE_CASES_PER_DIM = 5  # at d = 3 and at d = 4

#: cut-off runs that the determinism check makes twice each
_DETERMINISM_CASES = (
    {"model": "lin1d_real", "epsilons": [1e-2, 1e-3], "x0": [[0.6, 0.4]],
     "w_grid": {"min": -3.0, "max": 3.0, "step": 0.5}, "dt": 0.01, "seed": 7},
    {"model": "lin1d_complex", "epsilons": [1e-2], "x0": [[0.5, 0.2]],
     "w_grid": {"min": -2.0, "max": 2.0, "step": 1.0}, "dt": 0.01, "seed": 3},
)


def _check_fd_convergence() -> CheckResult:
    spec = corpus_spec("quartic")
    q = np.array([0.7])
    exact = spec.force.eval_DF(q)
    ratios = []
    for h1, h2 in ((1e-3, 5e-4), (2e-3, 1e-3)):
        e1, e2 = (float(np.abs(central_difference_jacobian(spec.force.eval_F, q, h) - exact).max()) for h in (h1, h2))
        ratios.append(e1 / max(e2, 1e-300))
    worst = max(ratios, key=lambda r: abs(r - 4.0))
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    return CheckResult(ok, worst, "halving ratios " + " and ".join(f"{r:.2f}" for r in ratios))


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
                s = ModelSpec(force, gamma, alpha=alpha, beta=bfrac * gamma)
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
    return CheckResult(bad == 0, float(bad), f"{bad} disagreements of {_LINEAR_EQUIVALENCE_CASES}")


def _check_spectral_consistency() -> CheckResult:
    checked = 0
    # seed 11 scales each matrix by a random factor; seed 12345 leaves it standard normal
    for seed, scaled in ((11, True), (12345, False)):
        rng = np.random.default_rng(seed)
        for _ in range(_SPECTRAL_CONSISTENCY_CASES):
            d = int(rng.integers(1, 5))
            M = rng.standard_normal((d, d))
            if scaled:
                M = M * rng.uniform(0.3, 2.0)
            gamma = rng.uniform(0.2, 4.0)
            v = classify_linear(M, gamma)
            if v.indeterminate:
                continue
            checked += 1
            trace = {c.name: c.satisfied for c in v.criterion_trace}
            if trace["spectrum_in_parabola"] != trace["eigencheck_T_M"]:
                return CheckResult(False, 0.0, "criteria disagree")
    return CheckResult(True, float(checked), f"{checked} matrices agree")


def _check_commutator_sign() -> CheckResult:
    rng = np.random.default_rng(12)
    worst = np.inf
    for _ in range(_COMMUTATOR_CASES):
        d = int(rng.integers(2, 5))
        M = rng.standard_normal((d, d))
        S, A = symmetric_part(M), skew_part(M)
        C = A @ S - S @ A
        vals, vecs = np.linalg.eig(M)
        for w in vecs.T:
            w = w / np.linalg.norm(w)
            worst = min(worst, float(np.real(np.conj(w) @ (C @ w))))
    return CheckResult(worst >= -1e-9, worst, f"min {worst:.2e}")


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
            return CheckResult(False, 0.0, "mismatch")
    return CheckResult(True, float(_NORMAL_EQUIVALENCE_CASES), "all agree")


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
                return CheckResult(False, 0.0, "counterexample")
    return CheckResult(True, float(_SUFFICIENCY_CASES), "no counterexample")


def _check_lyapunov_decay() -> CheckResult:
    worst = 0.0
    for name in STABLE_CORPUS:
        spec = corpus_spec(name)
        x0 = np.full(2 * spec.dim, 0.6)
        rep = verify_exponential_stability(spec, x0, t_end=8.0)
        h0 = float(lyapunov_H(spec, x0))
        worst = max(worst, rep.max_violation / max(h0, 1e-300))
        if not rep.monotone:
            return CheckResult(False, worst, f"{name} violates")
    return CheckResult(worst <= 1e-7, worst, f"worst rel violation {worst:.2e}")


def _check_spd_corpus() -> CheckResult:
    worst = np.inf
    for name in STABLE_CORPUS:
        spec = corpus_spec(name)
        sig = sigma_matrix(spec)
        dm = drift_metric(spec)
        worst = min(worst, np.min(np.linalg.eigvalsh(sig)), np.min(np.linalg.eigvalsh(dm.gamma_matrix)))
    return CheckResult(worst > 0, worst, f"min eig {worst:.2e}")


def _check_quadrature_decay() -> CheckResult:
    spec = corpus_spec("lin1d_real")
    A = drift_matrix(spec, np.zeros(1))
    J = noise_matrix(1)
    X = solve_lyapunov_stable(A, J).X
    eta = -float(np.max(np.linalg.eigvals(A).real))
    Ts = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    errs = [np.linalg.norm(X - lyapunov_quadrature(A, J, T), "fro") for T in Ts]
    rate = -float(np.polyfit(Ts, np.log(np.maximum(errs, 1e-300)), 1)[0])
    rel = abs(rate - 2 * eta) / (2 * eta)
    return CheckResult(rel <= 0.2, rel, f"rate {rate:.3f} vs {2*eta:.3f}")


def _random_gaussian(rng, dim: int, ridge: float) -> Gaussian:
    A = rng.standard_normal((dim, dim))
    return Gaussian(rng.standard_normal(dim), A @ A.T + ridge * np.eye(dim))


def _triangle_holds(rng, dim: int, ridge: float) -> bool:
    g = [_random_gaussian(rng, dim, ridge) for _ in range(3)]
    tv = lambda a, b: tv_gaussian(a, b, method="cdf_quadrature").value
    return tv(g[0], g[2]) <= tv(g[0], g[1]) + tv(g[1], g[2]) + 1e-8


def _check_tv_triangle() -> CheckResult:
    rng = np.random.default_rng(20)
    ok = all(_triangle_holds(rng, int(rng.integers(1, 3)), 0.2) for _ in range(_TV_TRIANGLE_CASES))
    rng = np.random.default_rng(12345)  # planar triples with a wider ridge
    ok = ok and all(_triangle_holds(rng, 2, 0.3) for _ in range(_TV_TRIANGLE_PLANAR_CASES))
    cases = float(_TV_TRIANGLE_CASES + _TV_TRIANGLE_PLANAR_CASES)
    return CheckResult(ok, cases, "holds on random triples" if ok else "violated")


def _check_tv_gil_pelaez_vs_slicer() -> CheckResult:
    """The any-dimension Gil-Pelaez integral against the 2-D slicer, and the triangle inequality at d = 3, 4."""
    rng = np.random.default_rng(22)
    gap = 0.0
    for _ in range(_TV_SLICER_CASES):
        g1, g2 = _random_gaussian(rng, 2, 0.3), _random_gaussian(rng, 2, 0.3)
        gil_pelaez = _tv_gil_pelaez(*_llr_terms(*_whiten(g1, g2)))[0]
        gap = max(gap, abs(gil_pelaez - _tv_cdf_2d(g1, g2)[0]))
    triangle = all(_triangle_holds(rng, dim, 0.3) for dim in (3, 4) for _ in range(_TV_TRIANGLE_CASES_PER_DIM))
    detail = f"max gap to the slicer {gap:.1e}" + ("" if triangle else "; triangle violated at d = 3 or 4")
    return CheckResult(gap <= TV_TOL and triangle, gap, detail)


def _check_tv_unit_shape() -> CheckResult:
    xs = np.linspace(0.0, 8.0, 200)
    vals = np.array([tv_unit(np.array([x])) for x in xs])
    mono = bool(np.all(np.diff(vals) > -1e-15))
    bound = bool(all(tv_unit(np.array([x])) <= tv_unit_linear_bound(np.array([x])) + 1e-15 for x in xs))
    return CheckResult(mono and bound, float(vals[-1]), "")


def _check_tv_reduce_idempotent() -> CheckResult:
    """Whitening a pair already in canonical form, N(m, C) against N(0, I), returns eigvalsh(C) and |m|."""
    def error(mean, A):
        C = A @ A.T + 0.3 * np.eye(2)
        lam, nu = _whiten(Gaussian(mean, C), Gaussian(np.zeros(2), np.eye(2)))
        return max(np.abs(lam - np.linalg.eigvalsh(C)).max(), abs(np.linalg.norm(nu) - np.linalg.norm(mean)))

    rng = np.random.default_rng(21)
    mean = rng.standard_normal(2)
    errs = [error(mean, rng.standard_normal((2, 2)))]
    rng = np.random.default_rng(12345)  # this case draws the factor first
    A = rng.standard_normal((2, 2))
    errs.append(error(rng.standard_normal(2), A))
    err = max(errs)
    return CheckResult(err <= 1e-12, err, f"err {err:.2e}")


def _check_covflow_psd_and_oracle() -> CheckResult:
    spec = corpus_spec("lin1d_complex")
    A = drift_matrix(spec, np.zeros(1))
    J = noise_matrix(1)
    worst = 0.0
    # (start, horizon, output spacing, times compared with the quadrature);
    # both the closed form of integrate_covariance and the ODE it skips for
    # a linear force are compared
    for x0, t_end, dt, times in (((0.6, 0.2), 6.0, 0.002, (1.0, 3.0, 6.0)), ((0.4, 0.0), 2.0, 0.001, (0.5, 1.0, 2.0))):
        path = integrate_covariance(spec, np.array(x0), t_end, dt)
        if path.clamp_events > 0:
            return CheckResult(False, float(path.clamp_events), "clamps happened")
        _, ode_covs = _ode_path(spec, np.array(x0), path.grid, path.grid[-1])
        for t in times:
            k = int(round(t / dt))
            Xq = lyapunov_quadrature(A, J, t, n_intervals=2000)
            worst = max(worst, float(np.abs(path.covs[k] - Xq).max()), float(np.abs(ode_covs[k] - Xq).max()))
    return CheckResult(worst < 1e-8, worst, f"max err {worst:.2e}")


def rk4_step(f, x, dt):
    """One classical fourth-order Runge-Kutta step: the fixed-step oracle of the adaptive solver."""
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _check_covflow_rk4_oracle() -> CheckResult:
    spec = corpus_spec("quartic")
    x0 = np.array([0.8, 0.1])
    path = integrate_covariance(spec, x0, 2.0, 2.0)
    y = np.concatenate([x0, np.zeros(4)])
    for _ in range(4000):  # fixed-step RK4 oracle at dt = 5e-4 to t = 2
        y = rk4_step(lambda v: _covariance_rhs(spec, v), y, 5e-4)
    err = max(np.abs(path.states[-1] - y[:2]).max(), np.abs(path.covs[-1] - y[2:].reshape(2, 2)).max())
    return CheckResult(err <= 1e-9, err, f"max err {err:.2e}")


def _check_cutoff_linearized_decay() -> CheckResult:
    def residuals(spec, x, times):
        sd = spectral_data(spec, x)
        A = drift_matrix(spec, np.zeros(spec.dim))
        lhs = [math.exp(sd.eta * t) * (sla.expm(A * t) @ sd.expansion_point) / t**sd.nu for t in times]
        return [float(np.linalg.norm(v - oscillating_sum(sd, t))) for v, t in zip(lhs, times)]

    worst_final = 0.0
    for name in ("lin1d_real", "lin1d_critical", "lin2d_rot"):
        spec = corpus_spec(name)
        errs = residuals(spec, np.full(2 * spec.dim, 0.5), (20.0, 40.0, 80.0))
        # Jordan blocks make the remainder decay like 1/t, so require decay
        # toward zero rather than a fixed small value at one time; a real
        # distinct spectrum leaves only round-off.
        bound = 1e-10 if name == "lin1d_real" else 2e-2
        if not (errs[2] <= 0.6 * errs[0] + 1e-12 and errs[2] < bound):
            return CheckResult(False, errs[2], name)
        worst_final = max(worst_final, errs[2])
    errs = residuals(corpus_spec("lin1d_real"), np.array([0.6, 0.4]), (5.0, 15.0, 30.0))
    if not (errs[2] < 1e-10 and errs[0] >= errs[2]):
        return CheckResult(False, errs[2], "lin1d_real from (0.6, 0.4)")
    return CheckResult(True, worst_final, f"final residual {worst_final:.2e}")


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
    return CheckResult(worst < 5e-3, worst, f"max diff {worst:.2e}")


def _check_jordan_robustness() -> CheckResult:
    # (seed, models, perturbations per model), all drawn from one stream per seed
    for seed, names, draws in ((30, ("lin1d_real", "lin1d_complex", "lin2d_rot"), 3), (1, ("lin1d_real",), 5)):
        rng = np.random.default_rng(seed)
        for name in names:
            spec = corpus_spec(name)
            sd = spectral_data(spec, np.full(2 * spec.dim, 0.5))
            A = drift_matrix(spec, np.zeros(spec.dim))
            sizes = sorted(c.length for c in jordan_chains(A)[0])
            for _ in range(draws):
                chains, _ = jordan_chains(A + rng.standard_normal(A.shape) * 1e-12)
                eta2 = min(-c.eigenvalue.real for c in chains)
                if abs(eta2 - sd.eta) > 1e-8:
                    return CheckResult(False, abs(eta2 - sd.eta), name)
                if sorted(c.length for c in chains) != sizes:
                    return CheckResult(False, 0.0, f"{name} chain sizes change")
    return CheckResult(True, 0.0, "eta and chain sizes stable under 1e-12 noise")


def _check_coupling_and_seed() -> CheckResult:
    spec = corpus_spec("lin1d_complex")
    eps = 0.01
    x0 = np.array([0.5, 0.1])
    kw = dict(epsilon=eps, scheme="euler_maruyama", store_every=20)
    b1 = integrate_sde(spec, x0, 1.0, 0.005, 256, seed=4, couple_fluctuation=True, **kw)
    recon = b1.coupled["ode"][None, :, :] + math.sqrt(2 * eps) * b1.coupled["Y"]
    exact = float(np.abs(b1.coupled["Z"] - recon).max())
    b2 = integrate_sde(spec, x0, 1.0, 0.005, 256, seed=5, **kw)
    b3 = integrate_sde(spec, x0, 1.0, 0.005, 256, seed=4, **kw)
    differs = not np.array_equal(b1.states, b2.states)
    matches = np.array_equal(b1.states, b3.states)
    # BAOAB: a repeated run is bitwise equal, and another seed changes the stream
    kw = dict(t_end=1.0, dt=0.01, n_paths=5000, seed=77, epsilon=0.02, scheme="baoab", store_every=10)
    repeats = np.array_equal(*(integrate_sde(spec, np.array([0.5, 0.0]), **kw).states for _ in range(2)))
    a, b = (integrate_sde(spec, np.zeros(2), 0.5, 0.01, 100, seed=s, epsilon=0.02, store_every=50) for s in (1, 2))
    reseeded = not np.array_equal(a.states, b.states)
    ok = exact == 0.0 and differs and matches and repeats and reseeded
    return CheckResult(ok, exact, "")


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
    return CheckResult(ok, rates["baoab"], f"em {rates['euler_maruyama']:.2f}, baoab {rates['baoab']:.2f}")


def pearson_2xk_pvalue(table) -> float:
    """p-value of Pearson's chi-square test of homogeneity on a 2 x k count table.

    The statistic sums (observed - expected)^2 / expected with the expected
    counts of the two margins, on k - 1 degrees of freedom.  Tables with
    fewer than 3 columns are refused: at one degree of freedom the usual
    test adds Yates' continuity correction, and a 2-bin histogram says little
    about a law anyway.
    """
    obs = np.asarray(table, dtype=float)
    if obs.ndim != 2 or obs.shape[0] != 2 or obs.shape[1] < 3:
        raise ParameterError(f"need a 2 x k table with k >= 3, got shape {obs.shape}")
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / obs.sum()
    stat = float(np.sum((obs - expected) ** 2 / expected))
    return float(chdtrc(obs.shape[1] - 1, stat))


def _check_gibbs_stationarity() -> CheckResult:
    spec = corpus_spec("quartic")
    eps = 0.05
    n = 40000
    batch = integrate_sde(spec, np.array([0.3, 0.0]), 25.0, 0.01, n, seed=9, epsilon=eps,
                          scheme="baoab", store_every=2500)
    cloud = batch.states[:, -1, :]
    v_sim = 0.5 * cloud[:, 1] ** 2 + spec.force.eval_U(cloud[:, :1])
    # direct Gibbs sampler: p gaussian, q by rejection against exp(-gamma U / eps)
    rng = np.random.default_rng(77)
    p = rng.normal(0.0, math.sqrt(eps / spec.gamma), n)
    qs = []
    scale = math.sqrt(eps / spec.gamma)
    while len(qs) < n:
        cand = rng.normal(0.0, scale, 4 * n)
        acc = rng.random(4 * n) < np.exp(-spec.gamma * (cand**4 / 4.0) / eps)
        qs.extend(cand[acc][: n - len(qs)])
    q = np.asarray(qs[:n])
    v_ref = 0.5 * p**2 + q**2 / 2.0 + q**4 / 4.0
    hi = np.quantile(np.concatenate([v_sim, v_ref]), 0.999)
    bins = np.linspace(0.0, hi, 30)
    h1, _ = np.histogram(v_sim, bins)
    h2, _ = np.histogram(v_ref, bins)
    keep = (h1 + h2) > 10
    pval = pearson_2xk_pvalue(np.vstack([h1[keep] + 1, h2[keep] + 1]))
    return CheckResult(pval > 0.01, pval, f"chi2 p={pval:.3f}")


def _check_cutoff_curve_vs_empirical() -> CheckResult:
    spec = corpus_spec("lin1d_complex")
    eps = 0.01
    x0 = np.array([0.6, 0.3])
    stationary = stationary_law(sigma_matrix(spec), eps)
    path = integrate_covariance(spec, x0, 8.0, 0.005)
    batch = integrate_sde(spec, x0, 8.0, 0.005, 20000, seed=31, epsilon=eps, scheme="baoab",
                          store_every=200)
    rng = np.random.default_rng(99)
    worst = 0.0
    for i, t in enumerate(batch.grid):
        if t < 1.0:
            continue
        mean, cov_t = path.at(float(t))
        exact = curve_point_tv(mean, cov_t, stationary, eps).value
        ref = stationary.sample(20000, rng)
        # the linear model is exactly Gaussian in law, so moment matching is sharp
        est = empirical_tv(batch.states[:, i, :], ref, method="gaussian_momentmatch", seed=31)
        gap = abs(est.estimate - exact)
        worst = max(worst, gap - 3 * est.stderr)
    return CheckResult(worst <= 0.0, worst, f"worst excess {worst:.3f}")


def _check_harness_determinism() -> CheckResult:
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(_DETERMINISM_CASES):
            runs = []
            for side in "ab":
                raw = dict(case, schema_version=1, model=corpus_model_config(case["model"]),
                           out_dir=os.path.join(tmp, f"case{i}_{side}"))
                runs.append(run_cutoff_experiment(validate_config(raw)))
            csvs = [sorted(a for a in m.artifacts if a.endswith(".csv")) for m in runs]
            ok = ok and bool(csvs[0]) and len(csvs[0]) == len(csvs[1])
            ok = ok and all(Path(a).read_bytes() == Path(b).read_bytes() for a, b in zip(*csvs))
            for m in runs:
                listed = {os.path.basename(a) for a in m.artifacts} | {"run_manifest.json"}
                ok = ok and all(os.path.exists(a) for a in m.artifacts)
                ok = ok and set(os.listdir(m.out_dir)) <= listed
    return CheckResult(ok, float(ok), "")


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "model.fd_order2": _check_fd_convergence,
    "model.linear_case_equivalence": _check_linear_case_equivalence,
    "linear.spectral_consistency": _check_spectral_consistency,
    "linear.commutator_nonneg": _check_commutator_sign,
    "linear.normal_equivalence": _check_normal_equivalence,
    "linear.sufficiency_oneway": _check_sufficiency_oneway,
    "linear.lyapunov_decay": _check_lyapunov_decay,
    "matrix_eq.sigma_gamma_pd": _check_spd_corpus,
    "matrix_eq.quadrature_decay_rate": _check_quadrature_decay,
    "gaussian_tv.triangle": _check_tv_triangle,
    "gaussian_tv.gil_pelaez_vs_slicer": _check_tv_gil_pelaez_vs_slicer,
    "gaussian_tv.unit_monotone_bounded": _check_tv_unit_shape,
    "gaussian_tv.reduce_idempotent": _check_tv_reduce_idempotent,
    "covflow.ode_vs_quadrature": _check_covflow_psd_and_oracle,
    "covflow.rk4_oracle": _check_covflow_rk4_oracle,
    "cutoff.linearized_decay": _check_cutoff_linearized_decay,
    "cutoff.profile_cauchy": _check_cutoff_profile_cauchy,
    "cutoff.jordan_robustness": _check_jordan_robustness,
    "simulate.coupling_and_seeding": _check_coupling_and_seed,
    "simulate.weak_order": _check_weak_order,
    "simulate.gibbs_stationarity": _check_gibbs_stationarity,
    "simulate.curve_vs_empirical": _check_cutoff_curve_vs_empirical,
    "harness.determinism_and_manifest": _check_harness_determinism,
}


def verify_suite(out_dir: str) -> RunManifest:
    """Run every check of `CHECKS`, in order, on the built-in corpus.

    Check failures are report entries, not exceptions: a check that raises is
    reported as failed with the exception, and the suite runs on.  Returns a
    manifest whose summary lists each check with its pass flag, margin and
    run time, and whose config_hash is the SHA-256 of the ordered check
    names.  An exception outside the checks leaves the manifest with status
    "failed" and the error.
    """
    names = json.dumps(list(CHECKS), separators=(",", ":"))
    return _run_pipeline(hashlib.sha256(names.encode()).hexdigest(), out_dir, _verify)


def _verify(manifest: RunManifest):
    entries = []
    for name, check in CHECKS.items():
        start = time.perf_counter()
        try:
            result = check()
        except Exception as exc:  # a crashed check is a failed check
            result = CheckResult(False, float("nan"), f"crashed: {exc!r}")
        seconds = time.perf_counter() - start
        entries.append({"name": name, "passed": bool(result.passed), "margin": float(result.margin),
                        "detail": result.detail, "seconds": seconds})
    rows = [(e["name"], int(e["passed"]), e["margin"], e["detail"], e["seconds"]) for e in entries]
    header = ["check", "passed", "margin", "detail", "seconds"]
    manifest.artifacts.append(write_csv(os.path.join(manifest.out_dir, "verify_report.csv"), header, rows))
    manifest.finalize(passed=all(e["passed"] for e in entries), summary={"checks": entries})
