"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is deferred to later calibration.
All randomness is seeded, so each criterion is deterministic end to end.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import langmix as lm
from langmix.covflow import noise_matrix
from langmix.cutoff import curve_point_tv, stationary_law
from langmix.gaussian_tv import Gaussian
from langmix.harness import (
    STABLE_CORPUS,
    corpus_spec,
)
from langmix.linear_stability import (
    classify_linear,
    lyapunov_H,
    skew_part,
    symmetric_part,
    t_matrix,
    verify_exponential_stability,
)
from langmix.matrix_eq import lyapunov_quadrature, solve_lyapunov_stable
from langmix.model import ModelSpec, make_linear_force


def _report(num: int, name: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(
        f"[ACCEPTANCE {num:02d}] {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)",
        flush=True,
    )
    assert passed, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_stationary_covariance_exact():
    t0 = time.time()
    worst = 0.0
    for k in (0.3, 0.7, 1.0, 1.9, 3.1):
        for gamma in (0.6, 2.4):
            spec = ModelSpec(make_linear_force([[k]]), gamma, alpha=2 / 3, beta=gamma / 2)
            sig = lm.sigma_matrix(spec)
            ref = np.diag([1.0 / (2 * gamma * k), 1.0 / (2 * gamma)])
            worst = max(worst, float(np.abs(sig - ref).max() / np.abs(ref).max()))
    _report(
        1, "stationary covariance exactness", worst <= 1e-10,
        f"worst rel err {worst:.2e} over the 10-point (k, gamma) grid",
        time.time() - t0, 1.0,
    )


@pytest.mark.slow
def test_criterion_02_lyapunov_residuals_and_quadrature():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst_resid, min_eig, worst_quad = 0.0, np.inf, 0.0
    count = 0
    while count < 200:
        d = int(rng.integers(1, 5))
        M = rng.standard_normal((d, d))
        gamma = float(rng.uniform(0.5, 3.0))
        v = classify_linear(M, gamma)
        if not v.stable or v.indeterminate or np.linalg.norm(M, 2) > 3.5:
            continue
        A = -t_matrix(M, gamma)
        if float(np.max(np.linalg.eigvals(A).real)) > -0.15:
            continue
        count += 1
        J = noise_matrix(d)
        sol = solve_lyapunov_stable(A, J)
        scale = np.linalg.norm(A, "fro") * np.linalg.norm(sol.X, "fro") + np.linalg.norm(J, "fro")
        worst_resid = max(worst_resid, sol.residual_fro / scale)
        min_eig = min(min_eig, sol.min_eig)
        eta = -float(np.max(np.linalg.eigvals(A).real))
        Xq = lyapunov_quadrature(A, J, 40.0 / eta)
        worst_quad = max(worst_quad, float(np.linalg.norm(sol.X - Xq, "fro")))
    passed = worst_resid <= 1e-10 and min_eig > 0 and worst_quad <= 1e-6
    _report(
        2, "Lyapunov residuals over 200 random stable models", passed,
        f"worst scaled residual {worst_resid:.2e}, min eig {min_eig:.2e}, "
        f"worst quadrature gap {worst_quad:.2e}",
        time.time() - t0, 30.0,
    )


def test_criterion_03_classification_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(303)
    disagreements = 0
    checked = 0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        M = rng.standard_normal((d, d)) * rng.uniform(0.3, 2.0)
        gamma = float(rng.uniform(0.2, 4.0))
        v = classify_linear(M, gamma)
        if v.indeterminate:
            continue
        checked += 1
        trace = {c.name: c.satisfied for c in v.criterion_trace}
        if trace["spectrum_in_parabola"] != trace["eigencheck_T_M"]:
            disagreements += 1

    from langmix.checks import _random_real_normal

    normal_mismatches = 0
    checked_normal = 0
    for _ in range(500):
        d = int(rng.integers(1, 5))
        M = _random_real_normal(rng, d)
        gamma = float(rng.uniform(0.3, 3.0))
        v = classify_linear(M, gamma)
        if v.indeterminate:
            continue
        checked_normal += 1
        suff = gamma**2 * symmetric_part(M) + skew_part(M) @ skew_part(M)
        pd = bool(np.min(np.linalg.eigvalsh(0.5 * (suff + suff.T))) > 0)
        if pd != v.stable:
            normal_mismatches += 1
    passed = disagreements == 0 and normal_mismatches == 0
    _report(
        3, "linear classification equivalence", passed,
        f"{checked} general + {checked_normal} normal matrices, "
        f"{disagreements}+{normal_mismatches} disagreements",
        time.time() - t0, 30.0,
    )


def test_criterion_04_lyapunov_decay_certificate():
    t0 = time.time()
    worst = 0.0
    for name in STABLE_CORPUS:
        spec = corpus_spec(name)
        x0 = np.full(2 * spec.dim, 0.6)
        rep = verify_exponential_stability(spec, x0, t_end=8.0)
        h0 = float(lyapunov_H(spec, x0))
        worst = max(worst, rep.max_violation / h0)
        assert rep.monotone, name
    _report(
        4, "Lyapunov decay certificate on the stable corpus", worst <= 1e-7,
        f"worst relative increase of exp(lam t) H(X_t): {worst:.2e}",
        time.time() - t0, 10.0,
    )


def test_criterion_05_covariance_flow_asymptotics():
    t0 = time.time()
    spec = corpus_spec("lin1d_complex")
    x0 = np.array([0.6, 0.3])
    sigma = lm.sigma_matrix(spec)
    path = lm.integrate_covariance(spec, x0, 30.0, 0.5)
    gap30 = float(np.linalg.norm(path.covs[-1] - sigma, "fro"))
    rate = lm.stationary_gap(spec, x0, 30.0).fitted_rate

    ts = np.geomspace(1e-3, 1e-1, 10)
    errs, inv_scaled = [], []
    for t in ts:
        p = lm.integrate_covariance(spec, x0, t, t / 200.0)
        errs.append(np.linalg.norm(p.covs[-1] - lm.short_time_covariance(spec, x0, t), "fro"))
        inv_scaled.append(t**1.5 / math.sqrt(np.linalg.eigvalsh(p.covs[-1])[0]))
    slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    inv_bound = float(np.max(inv_scaled))
    passed = gap30 < 1e-6 and rate > 0 and abs(slope - 4.0) <= 0.2 and inv_bound <= 7.0
    _report(
        5, "covariance flow asymptotics", passed,
        f"gap(30)={gap30:.2e}, rate={rate:.3f}, short-time slope={slope:.3f}, "
        f"max |Sigma_t^(-1/2)| t^1.5 = {inv_bound:.3f}",
        time.time() - t0, 60.0,
    )


@pytest.mark.slow
def test_criterion_06_moment_bounds():
    t0 = time.time()
    ok = True
    detail = []
    eps = 0.05
    for name in ("lin1d_complex", "quartic"):
        spec = corpus_spec(name)
        x0 = np.array([0.8, 0.4])
        batch = lm.integrate_sde(
            spec, x0, 20.0, 0.01, 100_000, seed=21, epsilon=eps, scheme="baoab", store_every=100
        )
        worst_margin = -np.inf
        worst_exp = 0.0
        for i, t in enumerate(batch.grid):
            m2 = np.sum(batch.states[:, i, :] ** 2, axis=1)
            se = float(m2.std(ddof=1) / math.sqrt(len(m2)))
            bound = float(lm.moment_bound(spec, x0, float(t), eps, 1))
            worst_margin = max(worst_margin, float(m2.mean()) - (bound + 3 * se))
            a = 0.9 * lm.exp_moment_bound(spec, x0, float(t), eps)
            worst_exp = max(worst_exp, float(np.mean(np.exp(a * m2))))
        ok = ok and worst_margin <= 0.0 and worst_exp < 2.0
        detail.append(f"{name}: margin {worst_margin:.2e}, max exp-moment {worst_exp:.3f}")
    _report(6, "moment bounds under Monte Carlo", ok, "; ".join(detail), time.time() - t0, 120.0)


@pytest.mark.slow
def test_criterion_07_fluctuation_covariance_consistency():
    t0 = time.time()
    spec = corpus_spec("lin1d_complex")
    x0 = np.array([0.7, 0.2])
    n = 100_000
    batch = lm.integrate_fluctuation(spec, x0, 5.0, 0.01, n, seed=5, store_every=50)
    cp = lm.integrate_covariance(spec, x0, 5.0, 0.005)
    worst = 0.0
    checkpoints = 0
    for i, t in enumerate(batch.grid):
        if i == 0:
            continue
        checkpoints += 1
        emp = np.cov(batch.states[:, i, :], rowvar=False)
        _, ref = cp.at(float(t))
        se = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref**2) / n)
        worst = max(worst, float(np.max(np.abs(emp - ref) / se)))
    passed = worst <= 3.0 and checkpoints == 10
    _report(
        7, "Gaussian fluctuation covariance consistency", passed,
        f"{checkpoints} checkpoints, worst |emp-ref|/stderr = {worst:.2f}",
        time.time() - t0, 120.0,
    )


def test_criterion_08_cutoff_curve():
    t0 = time.time()
    spec = corpus_spec("lin1d_complex")
    x0 = np.array([0.2, 0.1])
    sd = lm.spectral_data(spec, x0)
    sigma = lm.sigma_matrix(spec)
    eps_list = [1e-2, 1e-3, 1e-4, 1e-5]
    tmix = {e: lm.mixing_time(sd, e) for e in eps_list}
    path = lm.integrate_covariance(spec, x0, max(tmix.values()) + 6.5, 0.005)
    w_grid = np.arange(-6.0, 6.01, 0.5)
    sups = []
    ends = {}
    for eps in eps_list:
        sup = 0.0
        for w in w_grid:
            t = tmix[eps] + w
            if t < 0.02:
                continue
            mean, cov_t = path.at(t)
            curve = curve_point_tv(mean, cov_t, stationary_law(sigma, eps), eps).value
            sup = max(sup, abs(curve - lm.profile_D(spec, sd, t, eps)))
            if eps == 1e-5 and w in (-6.0, 6.0):
                ends[w] = curve
        sups.append(sup)
    monotone = all(a >= b for a, b in zip(sups, sups[1:]))
    passed = ends[-6.0] >= 0.99 and ends[6.0] <= 0.01 and monotone
    _report(
        8, "exact Gaussian cut-off curve", passed,
        f"curve(-6)={ends[-6.0]:.4f}, curve(+6)={ends[6.0]:.4f}, "
        f"sup diffs {['%.4f' % s for s in sups]} monotone={monotone}",
        time.time() - t0, 60.0,
    )


def test_criterion_09_profile_convergence():
    t0 = time.time()
    # profile convergence requires a real-spectrum model so that the
    # oscillation limit exists; gamma = 3 with k = 1 gives real eigenvalues
    spec = corpus_spec("lin1d_real")
    x0 = np.array([0.6, 0.4])
    sd = lm.spectral_data(spec, x0)
    assert lm.profile_limit_r(spec, sd).exists
    ws = np.linspace(-4.0, 4.0, 33)
    d5 = np.array([lm.profile_D(spec, sd, lm.mixing_time(sd, 1e-5) + w, 1e-5) for w in ws])
    d6 = np.array([lm.profile_D(spec, sd, lm.mixing_time(sd, 1e-6) + w, 1e-6) for w in ws])
    diff = float(np.abs(d5 - d6).max())
    monotone = bool(np.all(np.diff(d6) <= 1e-14))
    lo = lm.profile_D(spec, sd, lm.mixing_time(sd, 1e-6) - 12.0, 1e-6)
    hi = lm.profile_D(spec, sd, lm.mixing_time(sd, 1e-6) + 14.0, 1e-6)
    passed = diff < 5e-3 and monotone and lo > 0.99 and hi < 0.01
    _report(
        9, "profile convergence (real spectrum)", passed,
        f"pointwise diff {diff:.2e}, monotone={monotone}, limits ({lo:.4f}, {hi:.4f})",
        time.time() - t0, 60.0,
    )


@pytest.mark.slow
def test_criterion_10_stationary_gaussianization():
    t0 = time.time()
    x0 = np.array([0.5, 0.0])
    eps_list = [1e-1, 1e-2, 1e-3]
    tvs, errs, cs = [], [], []
    spec = corpus_spec("quartic")
    sigma = lm.sigma_matrix(spec)
    for i, eps in enumerate(eps_list):
        batch = lm.integrate_sde(
            spec, x0, 40.0, 0.02, 100_000, seed=100 + i, epsilon=eps, scheme="baoab",
            store_every=2000,
        )
        cloud = batch.states[:, -1, :]
        ref = Gaussian(np.zeros(2), 2 * eps * sigma).sample(
            len(cloud), np.random.default_rng(999 + i)
        )
        est = lm.empirical_tv(cloud, ref, method="gaussian_momentmatch", seed=7)
        tvs.append(est.estimate)
        errs.append(est.stderr)
        cs.append(float(np.mean(np.sum(cloud**2, axis=1))) / eps)
    # the estimator saturates at its bootstrap resolution near zero, so the
    # decay is asserted within three combined standard errors
    decreasing = all(
        b <= a + 3 * math.hypot(sa, sb)
        for (a, sa), (b, sb) in zip(zip(tvs, errs), zip(tvs[1:], errs[1:]))
    ) and tvs[0] > tvs[-1]
    c_ratio = max(cs) / min(cs)
    passed = decreasing and tvs[-1] < 0.05 and c_ratio < 1.5
    _report(
        10, "stationary-measure Gaussianization", passed,
        f"tv={['%.4f' % v for v in tvs]}, c={['%.3f' % c for c in cs]} (ratio {c_ratio:.2f})",
        time.time() - t0, 300.0,
    )


def test_criterion_11_quadratic_gronwall():
    t0 = time.time()
    rows = []
    for b in (1.0, 2.0):
        for ratio in (0.05, 0.15):
            for c in (0.3, 1.2):
                for M in (2.0, 6.0):
                    for frac in (0.2, 0.9):
                        rows.append((ratio * b * b / c, b, c, M, frac))
    rows = rows[:20]
    worst = -np.inf
    for a, b, c, M, frac in rows:
        delta = b * b - 4 * a * c
        assert delta > 0
        alpha = (b - math.sqrt(delta)) / (2 * c)
        beta = (b + math.sqrt(delta)) / (2 * c)
        u0 = frac * (M * alpha + beta) / (M + 1.0)
        t_end = 12.0 / math.sqrt(delta)
        sol = solve_ivp(
            lambda t, u: a - b * u + c * u * u,
            (0.0, t_end),
            [u0],
            rtol=1e-11,
            atol=1e-13,
            dense_output=True,
        )
        ts = np.linspace(0.0, t_end, 400)
        u = sol.sol(ts)[0]
        bound = lm.quadratic_gronwall_bound(a, b, c, M, u0, ts)
        worst = max(worst, float(np.max(u - bound)))
    _report(
        11, "quadratic Gronwall envelope", worst <= 1e-8,
        f"max excess of the equality dynamics over the envelope: {worst:.2e} "
        f"on a {len(rows)}-point grid",
        time.time() - t0, 5.0,
    )


@pytest.mark.slow
def test_criterion_12_pinsker_bound():
    t0 = time.time()
    # linear force: the second-order remainder vanishes identically
    lin = corpus_spec("lin1d_complex")
    zero = lm.pinsker_kl_bound(lin, np.array([0.5, 0.1]), 1.0, 0.002, 500, seed=5, epsilon=1e-2)

    eps_list = [1e-2, 1e-3, 1e-4]
    spec = corpus_spec("quartic")
    vals = [
        lm.pinsker_kl_bound(spec, np.array([0.8, 0.2]), 2.0, 0.002, 20_000, seed=3, epsilon=eps)
        for eps in eps_list
    ]
    slope = float(np.polyfit(np.log(eps_list), np.log(vals), 1)[0])

    batch = lm.integrate_sde(
        spec, np.array([0.8, 0.2]), 2.0, 0.002, 20_000, seed=3, epsilon=1e-3,
        scheme="euler_maruyama", store_every=1000, couple_fluctuation=True,
    )
    x_cloud = batch.states[:, -1, :]
    z_cloud = batch.coupled["Z"][:, -1, :]
    est = lm.empirical_tv(x_cloud, z_cloud, method="classifier_knn", seed=12)
    tv_bound = math.sqrt(vals[1])
    dominates = tv_bound >= est.estimate - 3 * est.stderr
    passed = zero == 0.0 and abs(slope - 1.0) <= 0.3 and dominates
    _report(
        12, "Pinsker bound sanity", passed,
        f"linear bound {zero}, slope {slope:.3f}, sqrt(KL)={tv_bound:.4f} vs "
        f"empirical {est.estimate:.4f}±{est.stderr:.4f}",
        time.time() - t0, 180.0,
    )
