import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import dblquad, quad

from langmix.errors import MethodError, ParameterError, ReductionError
from langmix.gaussian_tv import (
    Gaussian,
    tv_gaussian,
    tv_reduce,
    tv_unit,
    tv_unit_linear_bound,
)


def tv_by_density_quadrature_1d(g1: Gaussian, g2: Gaussian) -> float:
    """Independent oracle: 0.5 * integral of |phi1 - phi2| on the line."""
    m1, s1 = float(g1.mean[0]), math.sqrt(float(g1.cov[0, 0]))
    m2, s2 = float(g2.mean[0]), math.sqrt(float(g2.cov[0, 0]))

    def f(x):
        a = math.exp(-0.5 * ((x - m1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
        b = math.exp(-0.5 * ((x - m2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi))
        return abs(a - b)

    lo = min(m1 - 12 * s1, m2 - 12 * s2)
    hi = max(m1 + 12 * s1, m2 + 12 * s2)
    return 0.5 * quad(f, lo, hi, epsabs=1e-13, limit=400)[0]


def tv_by_density_quadrature_2d(g1: Gaussian, g2: Gaussian) -> float:
    def f(y, x):
        v = np.array([x, y])
        return abs(math.exp(g1.logpdf(v)[0]) - math.exp(g2.logpdf(v)[0]))

    sd = max(np.sqrt(np.diag(g1.cov)).max(), np.sqrt(np.diag(g2.cov)).max())
    lo = float(min(g1.mean.min(), g2.mean.min()) - 10 * sd)
    hi = float(max(g1.mean.max(), g2.mean.max()) + 10 * sd)
    return 0.5 * dblquad(f, lo, hi, lo, hi, epsabs=1e-10)[0]


class TestTvUnit:
    def test_zero(self):
        assert tv_unit(np.zeros(3)) == 0.0

    def test_norm_two_value_against_quadrature_oracle(self):
        # sqrt(2/pi) * int_0^1 exp(-s^2/2) ds
        oracle = math.sqrt(2 / math.pi) * quad(lambda s: math.exp(-0.5 * s * s), 0.0, 1.0)[0]
        assert oracle == pytest.approx(0.6826894921, abs=1e-9)
        assert tv_unit(np.array([2.0])) == pytest.approx(oracle, abs=1e-12)
        assert tv_unit(np.array([0.0, 2.0, 0.0])) == pytest.approx(oracle, abs=1e-12)

    def test_saturates_to_one(self):
        assert tv_unit(np.array([60.0])) == pytest.approx(1.0)

    @given(st.floats(0.0, 30.0), st.floats(0.01, 5.0))
    def test_monotone_and_bounded(self, r, dr):
        a, b = tv_unit(np.array([r])), tv_unit(np.array([r + dr]))
        assert b >= a
        assert 0.0 <= a <= 1.0
        assert a <= tv_unit_linear_bound(np.array([r])) + 1e-15


class TestTvReduce:
    def test_identity_pair(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        m, C = tv_reduce(g, g)
        assert np.allclose(m, 0.0) and np.allclose(C, np.eye(2))

    def test_equal_covariance_reduces_to_unit_shift(self, rng):
        A = rng.standard_normal((2, 2))
        S = A @ A.T + 0.5 * np.eye(2)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        m, C = tv_reduce(Gaussian(x, S), Gaussian(y, S))
        assert np.allclose(C, np.eye(2), atol=1e-12)
        w = np.linalg.eigh(S)
        Sih = (w[1] / np.sqrt(w[0])) @ w[1].T
        assert np.allclose(np.linalg.norm(m), np.linalg.norm(Sih @ (x - y)))

    def test_scaling_invariance(self, rng):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        S, T = A @ A.T + 0.4 * np.eye(2), B @ B.T + 0.4 * np.eye(2)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        c = 7.0
        v1 = tv_gaussian(Gaussian(x, S), Gaussian(y, T), method="cdf_quadrature").value
        v2 = tv_gaussian(
            Gaussian(c * x, c**2 * S), Gaussian(c * y, c**2 * T), method="cdf_quadrature"
        ).value
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_singular_covariance_rejected(self):
        with pytest.raises(ReductionError):
            tv_reduce(Gaussian(np.zeros(2), np.diag([1.0, 0.0])), Gaussian(np.zeros(2), np.eye(2)))


class TestTvGaussian:
    def test_equal_pair_is_zero(self):
        g = Gaussian(np.zeros(2), np.diag([0.5, 0.5]))
        assert tv_gaussian(g, g, method="exact_if_reducible").value == 0.0
        assert tv_gaussian(g, g, method="frobenius_bound").value == pytest.approx(0.0, abs=1e-12)
        assert tv_gaussian(g, g, method="cdf_quadrature").value == 0.0

    @pytest.mark.parametrize(
        "mean, cov1, cov2",
        [
            ([0.0], [[1.0]], [[1.5]]),
            ([1e-8 / np.sqrt(1e-9), 0.0], np.eye(2), np.eye(2)),
            ([3e-4, -2e-4], [[1.0, 0.2], [0.2, 0.5]], [[0.7, -0.1], [-0.1, 1.2]]),
        ],
        ids=["variance_pair", "mean_shift", "general_2d"],
    )
    def test_cdf_quadrature_scale_invariant(self, mean, cov1, cov2):
        # x -> sqrt(s) x maps N(0, S1), N(m, S2) to N(0, s S1), N(sqrt(s) m, s S2)
        # and keeps TV; at s = 1e-9 both scaled pairs pass np.allclose
        s = 1e-9
        m = np.asarray(mean)
        g1, g2 = Gaussian(np.zeros_like(m), cov1), Gaussian(m, cov2)
        h1 = Gaussian(np.zeros_like(m), s * np.asarray(cov1))
        h2 = Gaussian(np.sqrt(s) * m, s * np.asarray(cov2))
        ref = tv_gaussian(g1, g2, method="cdf_quadrature").value
        assert ref > 1e-4
        assert tv_gaussian(h1, h2, method="cdf_quadrature").value == pytest.approx(ref, rel=1e-9)

    def test_exact_requires_equal_covariances(self):
        g1 = Gaussian(np.zeros(1), [[1.0]])
        g2 = Gaussian(np.zeros(1), [[2.0]])
        with pytest.raises(MethodError):
            tv_gaussian(g1, g2, method="exact_if_reducible")

    def test_frobenius_requires_equal_means(self):
        g1 = Gaussian(np.ones(1), [[1.0]])
        g2 = Gaussian(np.zeros(1), [[2.0]])
        with pytest.raises(MethodError):
            tv_gaussian(g1, g2, method="frobenius_bound")

    def test_variance_pair_against_quadrature_oracle(self):
        # frozen oracle value for N(0,1) vs N(0,2), computed from the density
        # integral [the original estimate sheet quoted 0.2025, which the
        # oracle refutes]
        g1, g2 = Gaussian(np.zeros(1), [[1.0]]), Gaussian(np.zeros(1), [[2.0]])
        oracle = tv_by_density_quadrature_1d(g1, g2)
        assert oracle == pytest.approx(0.1660640750, abs=1e-9)
        mc = tv_gaussian(g1, g2, method="monte_carlo", n=1_000_000, seed=4)
        assert abs(mc.value - oracle) < 3 * mc.stderr
        cdf = tv_gaussian(g1, g2, method="cdf_quadrature")
        assert cdf.value == pytest.approx(oracle, abs=1e-9)

    def test_cdf_quadrature_matches_dblquad(self, rng):
        for _ in range(3):
            A = rng.standard_normal((2, 2))
            B = rng.standard_normal((2, 2))
            g1 = Gaussian(rng.standard_normal(2), A @ A.T + 0.3 * np.eye(2))
            g2 = Gaussian(rng.standard_normal(2), B @ B.T + 0.3 * np.eye(2))
            v = tv_gaussian(g1, g2, method="cdf_quadrature").value
            ref = tv_by_density_quadrature_2d(g1, g2)
            assert v == pytest.approx(ref, abs=1e-6)

    def test_frobenius_dominates_exact_value(self, rng):
        for _ in range(25):
            dim = int(rng.integers(1, 3))
            A = rng.standard_normal((dim, dim))
            B = rng.standard_normal((dim, dim))
            g1 = Gaussian(np.zeros(dim), A @ A.T + 0.4 * np.eye(dim))
            g2 = Gaussian(np.zeros(dim), B @ B.T + 0.4 * np.eye(dim))
            bound = tv_gaussian(g1, g2, method="frobenius_bound").value
            exact = tv_gaussian(g1, g2, method="cdf_quadrature").value
            assert bound >= exact - 1e-10

    def test_monte_carlo_reproducible(self):
        g1 = Gaussian(np.zeros(2), np.eye(2))
        g2 = Gaussian(np.ones(2), np.eye(2))
        a = tv_gaussian(g1, g2, method="monte_carlo", n=10000, seed=1)
        b = tv_gaussian(g1, g2, method="monte_carlo", n=10000, seed=1)
        assert a.value == b.value

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            tv_gaussian(Gaussian(np.zeros(1), [[1.0]]), Gaussian(np.zeros(2), np.eye(2)))


class TestGaussianType:
    def test_clamps_tiny_negative_eigenvalue(self):
        cov = np.diag([1.0, -1e-14])
        g = Gaussian(np.zeros(2), cov)
        assert g.clamped
        assert np.min(np.linalg.eigvalsh(g.cov)) >= 0

    def test_large_negative_eigenvalue_rejected(self):
        with pytest.raises(ParameterError):
            Gaussian(np.zeros(2), np.diag([1.0, -0.5]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            Gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_chol_regularizes_singular(self):
        g = Gaussian(np.zeros(2), np.diag([1.0, 0.0]))
        L = g.chol()
        assert g.regularized
        assert np.all(np.isfinite(L))

    def test_samples_match_moments(self):
        cov = np.array([[2.0, 0.7], [0.7, 1.0]])
        g = Gaussian(np.array([1.0, -2.0]), cov)
        x = g.sample(200_000, np.random.default_rng(0))
        assert np.allclose(x.mean(axis=0), g.mean, atol=0.02)
        assert np.allclose(np.cov(x, rowvar=False), cov, atol=0.03)
