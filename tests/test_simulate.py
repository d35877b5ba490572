import math

import numpy as np
import pytest
import scipy.linalg as sla

from langmix.covflow import drift_matrix, integrate_covariance, noise_matrix
from langmix.errors import ParameterError
from langmix.gaussian_tv import Gaussian, tv_unit
from langmix.harness import corpus_spec
from langmix.linear_stability import flow_zero_noise, make_spec
from langmix.matrix_eq import lyapunov_quadrature, sigma_matrix
from langmix.model import make_linear_force
from langmix.simulate import (
    BLOCK,
    empirical_tv,
    exp_moment_bound,
    integrate_fluctuation,
    integrate_sde,
    moment_bound,
    pinsker_kl_bound,
)


class TestIntegrateSde:
    def test_zero_noise_matches_flow(self):
        spec = corpus_spec("lin1d_complex")
        x0 = np.array([0.9, -0.2])
        ode = flow_zero_noise(spec, x0, 2.0, 0.01)
        for scheme, tol in (("euler_maruyama", 0.03), ("baoab", 0.002)):
            b = integrate_sde(spec, x0, 2.0, 0.01, 3, seed=0, epsilon=0.0, scheme=scheme, store_every=200)
            err = np.abs(b.states[:, -1, :] - ode.states[-1]).max()
            assert err < tol
            # all paths identical without noise
            assert np.ptp(b.states, axis=0).max() == 0.0

    def test_linear_gaussian_solution(self):
        # exact solution: mean e^{At} x0, covariance 2 eps int_0^t e^{As} J e^{A's} ds
        spec = corpus_spec("lin1d_complex")
        eps = 0.01
        x0 = np.array([0.8, 0.3])
        n = 40000
        b = integrate_sde(spec, x0, 1.0, 0.002, n, seed=8, epsilon=eps, scheme="baoab", store_every=500)
        A = drift_matrix(spec, np.zeros(1))
        mean_ref = sla.expm(A * 1.0) @ x0
        cov_ref = 2 * eps * lyapunov_quadrature(
            A, noise_matrix(1), 1.0, orientation="right", n_intervals=2000
        )
        cloud = b.states[:, -1, :]
        se_mean = np.sqrt(np.diag(cov_ref) / n)
        assert np.all(np.abs(cloud.mean(axis=0) - mean_ref) < 3 * se_mean)
        emp = np.cov(cloud, rowvar=False)
        se_cov = np.sqrt((np.outer(np.diag(cov_ref), np.diag(cov_ref)) + cov_ref**2) / n)
        assert np.all(np.abs(emp - cov_ref) < 4 * se_cov)

    def test_long_run_matches_stationary_covariance(self):
        spec = corpus_spec("lin1d_complex")
        eps = 0.05
        b = integrate_sde(spec, np.array([0.5, 0.0]), 30.0, 0.01, 30000, seed=3, epsilon=eps,
                          scheme="baoab", store_every=3000)
        emp = np.cov(b.states[:, -1, :], rowvar=False)
        ref = 2 * eps * sigma_matrix(spec)
        assert np.abs(emp - ref).max() < 2e-3

    def test_bitwise_reproducible(self):
        spec = corpus_spec("lin1d_complex")
        kw = dict(t_end=1.0, dt=0.01, n_paths=5000, seed=77, epsilon=0.02, scheme="baoab", store_every=10)
        a = integrate_sde(spec, np.array([0.5, 0.0]), **kw)
        b = integrate_sde(spec, np.array([0.5, 0.0]), **kw)
        assert np.array_equal(a.states, b.states)

    def test_seed_changes_stream(self):
        spec = corpus_spec("lin1d_complex")
        a = integrate_sde(spec, np.zeros(2), 0.5, 0.01, 100, seed=1, epsilon=0.02, store_every=50)
        b = integrate_sde(spec, np.zeros(2), 0.5, 0.01, 100, seed=2, epsilon=0.02, store_every=50)
        assert not np.array_equal(a.states, b.states)

    @pytest.mark.parametrize(
        "run, kw",
        [
            (integrate_sde, dict(epsilon=0.02, scheme="baoab")),
            (integrate_sde, dict(epsilon=0.02, scheme="euler_maruyama")),
            (integrate_fluctuation, dict(method="exact")),
            (integrate_fluctuation, dict(method="em")),
        ],
        ids=["sde_baoab", "sde_em", "fluctuation_exact", "fluctuation_em"],
    )
    def test_path_count_invariance_of_streams(self, run, kw):
        # the first 100 paths are identical whether 100 paths are run or
        # enough to cross into a second noise block
        spec = corpus_spec("lin1d_complex")
        kw = dict(kw, t_end=0.5, dt=0.01, seed=5, store_every=50)
        small = run(spec, np.zeros(2), n_paths=100, **kw)
        big = run(spec, np.zeros(2), n_paths=BLOCK + 100, **kw)
        assert np.array_equal(small.states, big.states[:100])

    def test_coupling_identity_and_restrictions(self):
        spec = corpus_spec("lin1d_complex")
        eps = 0.01
        b = integrate_sde(spec, np.array([0.4, 0.1]), 1.0, 0.005, 300, seed=4, epsilon=eps,
                          scheme="euler_maruyama", store_every=50, couple_fluctuation=True)
        z = b.coupled["Z"]
        recon = b.coupled["ode"][None, :, :] + math.sqrt(2 * eps) * b.coupled["Y"]
        assert np.abs(z - recon).max() == 0.0
        # the coupled Y is the Euler-Maruyama fluctuation on the same stream
        y = integrate_fluctuation(spec, np.array([0.4, 0.1]), 1.0, 0.005, 300, seed=4,
                                  method="em", store_every=50)
        assert np.array_equal(b.coupled["Y"], y.states)
        with pytest.raises(ParameterError):
            integrate_sde(spec, np.zeros(2), 1.0, 0.005, 10, seed=4, epsilon=eps, scheme="baoab",
                          couple_fluctuation=True)

    def test_explosion_excluded_and_counted(self):
        # inverted potential: F(q) = -q pushes mass away; far starts explode
        bad = make_spec(make_linear_force([[-1.0]]), 1.0, 2 / 3, 0.5)
        b = integrate_sde(bad, np.array([1.0, 1.0]), 60.0, 0.5, 8, seed=1, epsilon=200.0,
                          store_every=60, scheme="euler_maruyama")
        assert b.excluded > 0
        assert b.states.shape[0] == 8 - b.excluded
        assert np.all(np.isfinite(b.states))


class TestFluctuation:
    def test_starts_at_zero(self, harmonic_spec):
        b = integrate_fluctuation(harmonic_spec, np.array([0.7, 0.2]), 1.0, 0.01, 50, seed=1,
                                  store_every=100)
        assert np.all(b.states[:, 0, :] == 0.0)

    def test_covariance_matches_ode(self, harmonic_spec):
        n = 30000
        b = integrate_fluctuation(harmonic_spec, np.array([0.7, 0.2]), 4.0, 0.01, n, seed=11,
                                  store_every=100)
        cp = integrate_covariance(harmonic_spec, np.array([0.7, 0.2]), 4.0, 0.005)
        for i, t in enumerate(b.grid):
            if i == 0:
                continue
            emp = np.cov(b.states[:, i, :], rowvar=False)
            _, ref = cp.at(float(t))
            se = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref**2) / n)
            assert np.all(np.abs(emp - ref) < 4 * se)

    def test_em_variant_close_to_exact(self, quartic_spec):
        x0 = np.array([0.8, 0.0])
        kw = dict(t_end=2.0, dt=0.005, n_paths=20000, store_every=400)
        a = integrate_fluctuation(quartic_spec, x0, seed=3, method="exact", **kw)
        e = integrate_fluctuation(quartic_spec, x0, seed=3, method="em", **kw)
        ca = np.cov(a.states[:, -1, :], rowvar=False)
        ce = np.cov(e.states[:, -1, :], rowvar=False)
        assert np.abs(ca - ce).max() < 0.02


class TestMomentBounds:
    def test_first_moment_formula(self, harmonic_spec):
        from langmix.linear_stability import lyapunov_H

        x = np.array([0.4, 0.2])
        t = 1.7
        h = float(lyapunov_H(harmonic_spec, x))
        eps = 1e-2
        expected = harmonic_spec.kappa0 * (
            h * math.exp(-harmonic_spec.lam * t)
            + harmonic_spec.dim * eps / harmonic_spec.lam
        )
        assert float(moment_bound(harmonic_spec, x, t, eps, 1)) == pytest.approx(expected)

    def test_omega_sequence(self, harmonic_spec):
        from langmix.simulate import _omega

        d = 3
        assert _omega(0, d) == 1.0 and _omega(1, d) == 1.0
        assert _omega(2, d) == d + 2
        assert _omega(3, d) == (d + 2) * (d + 4)

    def test_monte_carlo_below_bound(self):
        spec = corpus_spec("lin1d_complex")
        eps = 0.05
        x0 = np.array([0.8, 0.4])
        b = integrate_sde(spec, x0, 10.0, 0.01, 20000, seed=21, epsilon=eps, scheme="baoab", store_every=100)
        for i, t in enumerate(b.grid):
            m2 = np.sum(b.states[:, i, :] ** 2, axis=1)
            bound = float(moment_bound(spec, x0, float(t), eps, 1))
            assert m2.mean() <= bound + 3 * m2.std(ddof=1) / math.sqrt(len(m2))

    def test_exp_moment_threshold_monotone(self, harmonic_spec):
        x = np.array([1.0, 0.5])
        vals = [exp_moment_bound(harmonic_spec, x, t, 1e-2) for t in (0.0, 1.0, 5.0, 20.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: integrate_sde(spec, np.zeros(2), 0.1, 0.01, 4, seed=0, epsilon=-1e-3),
            lambda spec: moment_bound(spec, np.zeros(2), 1.0, -1e-3),
            lambda spec: exp_moment_bound(spec, np.zeros(2), 1.0, -1e-3),
        ],
        ids=["integrate_sde", "moment_bound", "exp_moment_bound"],
    )
    def test_negative_noise_level_rejected(self, harmonic_spec, call):
        with pytest.raises(ParameterError, match="nonnegative"):
            call(harmonic_spec)

    def test_exp_moment_monte_carlo(self):
        spec = corpus_spec("lin1d_complex")
        eps = 0.05
        x0 = np.array([0.8, 0.4])
        b = integrate_sde(spec, x0, 5.0, 0.01, 20000, seed=9, epsilon=eps, scheme="baoab", store_every=250)
        for i, t in enumerate(b.grid):
            a = 0.9 * exp_moment_bound(spec, x0, float(t), eps)
            val = float(np.mean(np.exp(a * np.sum(b.states[:, i, :] ** 2, axis=1))))
            assert val < 2.0


class TestEmpiricalTV:
    def test_identical_clouds(self, rng):
        cloud = rng.standard_normal((8000, 2))
        est = empirical_tv(cloud[:4000], cloud[4000:], method="gaussian_momentmatch")
        assert est.estimate < 3 * est.stderr + 0.02
        knn = empirical_tv(cloud[:4000], cloud[4000:], method="classifier_knn")
        assert knn.estimate < 3 * knn.stderr + 0.02

    def test_known_separation(self, rng):
        # unit Gaussians two apart have TV = tv_unit(2) ~ 0.6827
        a = rng.standard_normal((20000, 2))
        b = rng.standard_normal((20000, 2)) + np.array([2.0, 0.0])
        target = tv_unit(np.array([2.0]))
        est = empirical_tv(a, b, method="gaussian_momentmatch")
        assert abs(est.estimate - target) < max(3 * est.stderr, 0.01)

    def test_monotone_in_offset(self, rng):
        a = rng.standard_normal((8000, 1))
        prev = -1.0
        for off in (0.5, 1.0, 2.0, 3.0):
            b = rng.standard_normal((8000, 1)) + off
            est = empirical_tv(a, b, method="classifier_knn").estimate
            assert est > prev - 0.02
            prev = est

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ParameterError):
            empirical_tv(rng.standard_normal((10, 1)), rng.standard_normal((10, 2)))

    @pytest.mark.parametrize("n", [4, 5])
    def test_knn_refuses_clouds_too_small_to_train(self, rng, n):
        # half of each cloud trains the classifier, which needs 5 neighbours
        with pytest.raises(ParameterError, match="6 points per cloud"):
            empirical_tv(rng.standard_normal((n, 2)), rng.standard_normal((n, 2)), method="classifier_knn")

    def test_knn_smallest_trainable_clouds(self, rng):
        est = empirical_tv(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)), method="classifier_knn")
        assert 0.0 <= est.estimate <= 1.0


class TestPinsker:
    def test_zero_for_linear_force(self):
        spec = corpus_spec("lin1d_complex")
        val = pinsker_kl_bound(spec, np.array([0.5, 0.1]), 1.0, 0.002, 200, seed=5, epsilon=0.01)
        assert val == 0.0

    def test_positive_and_small_for_quartic(self, quartic_spec):
        val = pinsker_kl_bound(quartic_spec, np.array([0.8, 0.2]), 1.0, 0.002, 2000, seed=5, epsilon=1e-3)
        assert 0.0 < val < 1.0

    def test_requires_noise(self, quartic_spec):
        with pytest.raises(ParameterError):
            pinsker_kl_bound(quartic_spec, np.zeros(2), 1.0, 0.01, 10, seed=0, epsilon=0.0)
