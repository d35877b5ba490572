import inspect
import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import dblquad, quad

from langmix import gaussian_tv
from langmix.errors import MethodError, ParameterError
from langmix.gaussian_tv import (
    TV_TOL,
    Gaussian,
    _whiten,
    tv_gaussian,
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


def _density_2d(g: Gaussian):
    """Closed-form density of a 2-D Gaussian; its precision and determinant are computed once."""
    (s11, s12), (_, s22) = g.cov.tolist()
    m1, m2 = g.mean.tolist()
    det = s11 * s22 - s12 * s12
    a, b, c = s22 / det, -s12 / det, s11 / det
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def pdf(x: float, y: float) -> float:
        dx, dy = x - m1, y - m2
        return norm * math.exp(-0.5 * (a * dx * dx + 2.0 * b * dx * dy + c * dy * dy))

    return pdf


def tv_by_density_quadrature_2d(g1: Gaussian, g2: Gaussian) -> float:
    """Independent oracle: 0.5 * integral of |phi1 - phi2| over a box in the plane."""
    p1, p2 = _density_2d(g1), _density_2d(g2)

    def f(y, x):
        return abs(p1(x, y) - p2(x, y))

    sd = max(np.sqrt(np.diag(g1.cov)).max(), np.sqrt(np.diag(g2.cov)).max())
    lo = float(min(g1.mean.min(), g2.mean.min()) - 10 * sd)
    hi = float(max(g1.mean.max(), g2.mean.max()) + 10 * sd)
    return 0.5 * dblquad(f, lo, hi, lo, hi, epsabs=1e-10)[0]


def _logpdf(g: Gaussian, x: np.ndarray) -> np.ndarray:
    diff = x - g.mean
    maha = np.sum((diff @ np.linalg.inv(g.cov)) * diff, axis=1)
    logdet = np.linalg.slogdet(g.cov)[1]
    return -0.5 * (maha + logdet + g.dim * math.log(2 * math.pi))


def tv_by_monte_carlo(g1: Gaussian, g2: Gaussian, n: int, seed: int):
    """Independent oracle: (estimate, stderr) of 0.5 * integral of |phi1 - phi2| from n points.

    Mixture importance sampling: half the points come from each Gaussian, and
    |phi1 - phi2| / (phi1 + phi2) = |tanh(LLR / 2)| is averaged over them.
    """
    rng = np.random.default_rng(seed)
    n1 = n // 2
    x = np.vstack([g1.sample(n1, rng), g2.sample(n - n1, rng)])
    r = np.abs(np.tanh(0.5 * (_logpdf(g1, x) - _logpdf(g2, x))))
    return float(np.mean(r)), float(np.std(r, ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("mean, cov", [(np.zeros(2), np.eye(3)), (np.zeros(1), np.eye(2)), (np.zeros(3), [1.0])],
                         ids=["3x3_for_2", "2x2_for_1", "scalar_for_3"])
def test_a_covariance_of_another_size_than_the_mean_is_refused(mean, cov):
    with pytest.raises(ParameterError, match=f"does not match mean of size {len(mean)}"):
        Gaussian(mean, cov)


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


def _inv_sqrt(S: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(S)
    return (v / np.sqrt(w)) @ v.T


class TestTvReduce:
    """The one reduction of a pair, `_whiten`, to (lam, nu) with N(nu, diag(lam)) against N(0, I)."""

    def test_identity_pair(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        lam, nu = _whiten(g, g)
        assert np.allclose(nu, 0.0) and np.allclose(lam, 1.0)

    def test_equal_covariance_reduces_to_unit_shift(self, rng):
        A = rng.standard_normal((2, 2))
        S = A @ A.T + 0.5 * np.eye(2)
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        lam, nu = _whiten(Gaussian(x, S), Gaussian(y, S))
        assert np.allclose(lam, 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(nu), np.linalg.norm(_inv_sqrt(S) @ (x - y)))

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
        with pytest.raises(np.linalg.LinAlgError):
            _whiten(Gaussian(np.zeros(2), np.diag([1.0, 0.0])), Gaussian(np.zeros(2), np.eye(2)))

    def test_spectrum_is_that_of_the_symmetric_whitening(self, rng):
        # eig(T^{-1/2} S T^{-1/2}) and |T^{-1/2}(x - y)| do not depend on the square root taken
        S, T = _spd(rng, 3), _spd(rng, 3)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        lam, nu = _whiten(Gaussian(x, S), Gaussian(y, T))
        Tih = _inv_sqrt(T)
        assert np.allclose(lam, np.linalg.eigvalsh(Tih @ S @ Tih), rtol=1e-12)
        assert np.linalg.norm(nu) == pytest.approx(np.linalg.norm(Tih @ (x - y)), rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("method", ["cdf_quadrature", "frobenius_bound"])
    def test_tv_gaussian_whitens_once_per_call(self, monkeypatch, rng, dim, method):
        calls = []

        def counted(g1, g2):
            calls.append(1)
            return _whiten(g1, g2)

        monkeypatch.setattr(gaussian_tv, "_whiten", counted)
        g1, g2 = Gaussian(np.zeros(dim), _spd(rng, dim)), Gaussian(np.zeros(dim), _spd(rng, dim))
        tv_gaussian(g1, g2, method=method)
        assert len(calls) == 1


class TestTvGaussian:
    def test_equal_pair_is_zero(self):
        g = Gaussian(np.zeros(2), np.diag([0.5, 0.5]))
        assert tv_gaussian(g, g, method="frobenius_bound").value == pytest.approx(0.0, abs=1e-12)
        assert tv_gaussian(g, g, method="cdf_quadrature").value == 0.0

    @pytest.mark.parametrize(
        "mean, cov1, cov2",
        [
            ([0.0], [[1.0]], [[1.5]]),
            ([1e-8 / np.sqrt(1e-9), 0.0], np.eye(2), np.eye(2)),
            ([3e-4, -2e-4], [[1.0, 0.2], [0.2, 0.5]], [[0.7, -0.1], [-0.1, 1.2]]),
            (
                [0.4, -0.3, 0.2, 0.1],
                [[1.0, 0.2, 0.0, 0.1], [0.2, 0.8, 0.1, 0.0], [0.0, 0.1, 1.3, 0.2], [0.1, 0.0, 0.2, 0.6]],
                [[0.7, -0.1, 0.05, 0.0], [-0.1, 1.2, 0.0, 0.1], [0.05, 0.0, 0.9, -0.2], [0.0, 0.1, -0.2, 1.1]],
            ),
        ],
        ids=["variance_pair", "mean_shift", "general_2d", "general_4d"],
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

    @pytest.mark.parametrize("dim", [2, 4])
    def test_nearly_equal_covariances_decided_on_the_whitened_gap(self, dim):
        # S1 and S2 are 1e-9 apart relative to their size, but 1.9e-3 apart
        # in the whitened small direction, so the pair is not "equal": its TV
        # is that of the 1-D pair in that direction
        small = np.tile([1.0, 1e-6], dim // 2)
        S2 = np.diag(small)
        S1 = S2 + np.diag(np.eye(dim)[1] * 1.9e-9)
        one_d = tv_gaussian(Gaussian(np.zeros(1), [[1e-6 + 1.9e-9]]), Gaussian(np.zeros(1), [[1e-6]]))
        res = tv_gaussian(Gaussian(np.zeros(dim), S1), Gaussian(np.zeros(dim), S2))
        assert one_d.value > 4e-4
        assert res.kind == "exact" and res.value == pytest.approx(one_d.value, abs=1e-9)

    def test_equal_covariance_shortcut_reports_its_frobenius_bound(self, rng):
        A = rng.standard_normal((3, 3))
        S = A @ A.T + 0.5 * np.eye(3)
        g1, g2 = Gaussian(rng.standard_normal(3), S), Gaussian(rng.standard_normal(3), S)
        Sih = _inv_sqrt(g2.cov)
        C = Sih @ g1.cov @ Sih
        res = tv_gaussian(g1, g2)
        # the symmetric and the Cholesky whitening agree up to rounding
        assert res.value == pytest.approx(tv_unit(Sih @ (g1.mean - g2.mean)), rel=1e-12) and res.kind == "exact"
        assert res.abserr == pytest.approx(1.5 * np.linalg.norm(C - np.eye(3), "fro"), abs=1e-14)
        assert res.abserr <= TV_TOL

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_singular_pair_raises_linalg_error(self, dim):
        # callers such as empirical_tv fall back on LinAlgError
        S = np.diag(np.eye(dim)[0] if dim > 1 else [0.0])
        with pytest.raises(np.linalg.LinAlgError):
            tv_gaussian(Gaussian(np.zeros(dim), S), Gaussian(np.ones(dim), S))
        for g1, g2 in ((Gaussian(np.zeros(dim), S), Gaussian(np.zeros(dim), np.eye(dim))),
                       (Gaussian(np.zeros(dim), np.eye(dim)), Gaussian(np.zeros(dim), S))):
            for method in ("cdf_quadrature", "frobenius_bound"):
                with pytest.raises(np.linalg.LinAlgError):
                    tv_gaussian(g1, g2, method=method)

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
        mc, stderr = tv_by_monte_carlo(g1, g2, n=1_000_000, seed=4)
        assert abs(mc - oracle) < 3 * stderr
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

    @pytest.mark.parametrize("method", ["monte_carlo", "exact_if_reducible", "no_such_method"])
    def test_only_the_exact_method_and_the_bound(self, method):
        assert list(inspect.signature(tv_gaussian).parameters) == ["g1", "g2", "method"]
        g = Gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(MethodError):
            tv_gaussian(g, g, method=method)

    def test_dimension_mismatch(self):
        for method in ("cdf_quadrature", "frobenius_bound"):
            with pytest.raises(ParameterError):
                tv_gaussian(Gaussian(np.zeros(1), [[1.0]]), Gaussian(np.zeros(2), np.eye(2)), method=method)


def _spd(rng, dim: int) -> np.ndarray:
    A = rng.standard_normal((dim, dim))
    return A @ A.T + 0.3 * np.eye(dim)


def _gil_pelaez_cases() -> dict:
    """Pairs (m1, S1, m2, S2) of dimension >= 3, one per regime of the integral."""
    rng = np.random.default_rng(2024)
    S = _spd(rng, 4)
    L = np.linalg.cholesky(S)
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    near = S + 1e-6 * L @ Q @ np.diag([1.0, -2.0, 3.0, 1.0]) @ Q.T @ L.T  # whitened gap 1e-6
    cases = {f"random_d{d}": (rng.standard_normal(d), _spd(rng, d), rng.standard_normal(d), _spd(rng, d))
             for d in (3, 4, 6)}
    cases.update({
        # equal means: the characteristic functions decay only as a power of u
        "equal_means": (np.zeros(4), np.diag([1.0, 2.0, 0.5, 3.0]), np.zeros(4), np.eye(4)),
        "nearly_equal_covariances": (np.zeros(4), near, np.zeros(4), S),
        "nearly_equal_covariances_shifted": (np.full(4, 0.3), near, np.zeros(4), S),
        # two directions with A = 0 (equal whitened variance) beside two with A != 0
        "mixed_directions": (np.array([0.3, -0.2, 0.5, 0.1]), np.diag([1.0, 1.0, 2.0, 0.5]), np.zeros(4), np.eye(4)),
        "rank_one_gap": (np.zeros(4), S + 0.5 * np.outer(Q[:, 0], Q[:, 0]), np.zeros(4), S),
    })
    return cases


GIL_PELAEZ_CASES = _gil_pelaez_cases()


class TestGilPelaez:
    """cdf_quadrature in dimension >= 3: one Gil-Pelaez integral of the LLR's characteristic functions."""

    @pytest.mark.parametrize("name", list(GIL_PELAEZ_CASES))
    def test_matches_monte_carlo_symmetric_and_fast(self, name):
        m1, S1, m2, S2 = GIL_PELAEZ_CASES[name]
        g1, g2 = Gaussian(m1, S1), Gaussian(m2, S2)
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            res = tv_gaussian(g1, g2, method="cdf_quadrature")
            seconds.append(time.perf_counter() - start)
        assert res.kind == "exact" and res.abserr <= TV_TOL
        assert min(seconds) < 0.1
        assert tv_gaussian(g2, g1, method="cdf_quadrature").value == pytest.approx(res.value, abs=2 * TV_TOL)
        mc, stderr = tv_by_monte_carlo(g1, g2, n=2_000_000, seed=8)
        assert abs(res.value - mc) <= 4 * stderr

    def test_means_twelve_sd_apart_saturate(self):
        S1, S2 = np.diag([1.0, 1.5, 0.7, 1.2]), np.eye(4)
        m1 = 12.0 * np.sqrt(np.diag(S2))  # twelve standard deviations in every coordinate
        res = tv_gaussian(Gaussian(m1, S1), Gaussian(np.zeros(4), S2), method="cdf_quadrature")
        assert 1.0 - 1e-9 <= res.value <= 1.0
        assert res.kind == "exact"

    def test_an_error_above_the_tolerance_is_an_estimate(self, monkeypatch):
        m1, S1, m2, S2 = GIL_PELAEZ_CASES["random_d3"]
        monkeypatch.setattr(gaussian_tv, "TV_TOL", 1e-20)
        res = tv_gaussian(Gaussian(m1, S1), Gaussian(m2, S2), method="cdf_quadrature")
        assert res.kind == "estimate" and res.abserr > 1e-20


def _tail_bound_by_cumprod(u, A, log_modulus):
    """The tail bound with its product over m factors taken as a cumprod, which overflows at d = 128."""
    a = -np.sort(-np.abs(A), axis=1)
    m = np.arange(1, A.shape[1] + 1)
    with np.errstate(divide="ignore"):
        factors = (1.0 + 1.0 / (4.0 * u[None, :, None] ** 2 * a[:, None, :] ** 2)) ** 0.25
    best = np.min(np.cumprod(factors, axis=-1) * 2.0 / m, axis=-1)
    return np.sum(np.exp(log_modulus) * best, axis=0)


class TestTailBound:
    def test_dimension_128_does_not_overflow(self):
        d = 128
        g1 = Gaussian(0.05 * np.ones(d), np.diag(1.0 + 1e-5 * np.linspace(1.0, 2.0, d)))
        with np.errstate(over="raise"):
            res = tv_gaussian(g1, Gaussian(np.zeros(d), np.eye(d)))
        assert res.kind == "exact" and res.value == pytest.approx(0.22270178115574962, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
    def test_matches_the_cumprod_where_it_is_finite(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(5):
            g1 = Gaussian(rng.standard_normal(d), _spd(rng, d))
            g2 = Gaussian(rng.standard_normal(d), _spd(rng, d))
            A, B, C = gaussian_tv._llr_terms(*_whiten(g1, g2))
            u = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 60)])
            log_modulus = gaussian_tv._log_cf(u, A, B, C)[0]
            expected = _tail_bound_by_cumprod(u, A, log_modulus)
            assert np.isinf(expected[0]) and np.all(np.isfinite(expected[1:]))
            np.testing.assert_allclose(gaussian_tv._tail_bound(u, A, log_modulus), expected, rtol=1e-12)


def _log_cf_by_node(u, A, B, C):
    """`_log_cf` with its terms laid out (row, node, direction), each node summing its own directions."""
    uu, a, b2 = u[:, None], A[:, None, :], B[:, None, :] ** 2
    q = 1.0 + 4.0 * (uu * a) ** 2
    log_modulus = -(0.25 * np.log(q) + 0.5 * uu**2 * b2 / q).sum(axis=-1)
    phase = (0.5 * np.arctan(2.0 * uu * a) - uu**3 * b2 * a / q).sum(axis=-1)
    return log_modulus, phase + u * C.sum(axis=1)[:, None]


def _log_cf_speed_by_node(u, A, B, C):
    """`_log_cf_speed` with its terms laid out (row, node, direction)."""
    uu, a, b2 = u[:, None], A[:, None, :], B[:, None, :] ** 2
    q = 1.0 + 4.0 * (uu * a) ** 2
    d_modulus = (2.0 * uu * a**2 / q + uu * b2 / q**2).sum(axis=-1)
    d_phase = (a / q - b2 * a * uu**2 * (2.0 + q) / q**2).sum(axis=-1) + C.sum(axis=1)[:, None]
    return d_modulus + np.abs(d_phase)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


class TestCharacteristicFunctionLayout:
    """The direction-major layout keeps every term and the order of each sum, so below d = 8 it keeps the bits."""

    @pytest.mark.parametrize("d", range(1, 8))
    def test_matches_the_node_major_formulas_bit_for_bit(self, d):
        rng = np.random.default_rng(70 + d)
        for _ in range(5):
            g1 = Gaussian(rng.standard_normal(d), _spd(rng, d))
            g2 = Gaussian(rng.standard_normal(d), _spd(rng, d))
            A, B, C = gaussian_tv._llr_terms(*_whiten(g1, g2))
            u = np.concatenate([[0.0], np.geomspace(1e-4, 1e8, 97), rng.uniform(0.0, 50.0, 40)])
            assert u.max() >= 1e6
            for new, old in zip(gaussian_tv._log_cf(u, A, B, C), _log_cf_by_node(u, A, B, C)):
                assert new.shape == (2, len(u)) and np.array_equal(_bits(new), _bits(old))
            speed, expected = gaussian_tv._log_cf_speed(u, A, B, C), _log_cf_speed_by_node(u, A, B, C)
            assert np.array_equal(_bits(speed), _bits(expected))

    def test_a_direction_with_a_zero_coefficient_keeps_its_bits(self):
        # lam_j = 1 makes A_j = 0 exactly, the case the tail bound sorts last
        A, B, C = gaussian_tv._llr_terms(np.array([0.5, 1.0, 2.0, 1.0]), np.array([0.3, -0.2, 0.0, 0.1]))
        assert np.count_nonzero(A == 0.0) == 4
        u = np.concatenate([[0.0], np.geomspace(1e-3, 1e7, 41)])
        for new, old in zip(gaussian_tv._log_cf(u, A, B, C), _log_cf_by_node(u, A, B, C)):
            assert np.array_equal(_bits(new), _bits(old))
        assert np.array_equal(_bits(gaussian_tv._log_cf_speed(u, A, B, C)), _bits(_log_cf_speed_by_node(u, A, B, C)))


class TestSaturatedPairs:
    """Pairs whose Bhattacharyya coefficient BC is within TV_TOL: 1 - BC <= d_TV <= 1."""

    def test_far_apart_pairs_are_one_and_never_mislabelled(self):
        # |nu| >= 60 puts d_TV within 1e-300 of 1; Gil-Pelaez labelled some of these
        # "exact" while off by more than TV_TOL, and others "estimate"
        rng = np.random.default_rng(0)
        for _ in range(120):
            d = int(rng.choice([3, 4, 6]))
            nu = rng.standard_normal(d)
            nu *= rng.uniform(60.0, 300.0) / np.linalg.norm(nu)
            lam = 1.0 + rng.uniform(-0.05, 0.05, d)
            res = tv_gaussian(Gaussian(nu, np.diag(lam)), Gaussian(np.zeros(d), np.eye(d)))
            assert res.kind == "exact" and abs(res.value - 1.0) <= TV_TOL

    def test_value_one_carries_the_coefficient_as_its_error(self):
        lam, nu = np.array([0.9, 1.1]), np.array([13.0, 0.0])
        bc = np.prod(np.sqrt(2.0 * np.sqrt(lam) / (1.0 + lam))) * np.exp(-np.sum(nu**2 / (4.0 * (1.0 + lam))))
        assert bc <= TV_TOL
        res = tv_gaussian(Gaussian(nu, np.diag(lam)), Gaussian(np.zeros(2), np.eye(2)))
        assert (res.value, res.kind) == (1.0, "exact") and res.abserr == pytest.approx(bc, rel=1e-12)


def _slicer_pairs() -> list:
    """Recorded 2-D pairs and the slicer's (value, abserr), all as float.hex strings.

    The pairs are curve points of lin1d_complex, lin1d_real, lin1d_critical
    and quartic (the first is lin1d_complex from (0.2, -0.4) at eps = 1e-2,
    w = -2.75) and four hand-made pairs, one for each kind of slice.  The
    values were recorded before the integrand took its constants once per
    pair, with the interval helpers called at every y.
    """
    path = os.path.join(os.path.dirname(__file__), "data", "tv_cdf_2d_pairs.json")
    with open(path) as fh:
        return json.load(fh)


def _hex_array(values, shape):
    return np.array([float.fromhex(v) for v in values]).reshape(shape)


@pytest.mark.parametrize("pair", _slicer_pairs(), ids=lambda p: p["case"])
def test_slicer_keeps_its_recorded_bits(pair):
    g1 = Gaussian(_hex_array(pair["mean1"], 2), _hex_array(pair["cov1"], (2, 2)))
    g2 = Gaussian(_hex_array(pair["mean2"], 2), _hex_array(pair["cov2"], (2, 2)))
    value, abserr = gaussian_tv._tv_cdf_2d(g1.mean, g1.cov, g2.mean, g2.cov)
    assert (value.hex(), abserr.hex()) == (pair["value"], pair["abserr"])


def _gil_pelaez_pairs() -> list:
    """Recorded whitened pairs (lam, nu) and `_tv_gil_pelaez`'s (value, abserr), all as float.hex strings.

    Four seeded pairs at each of d = 3, 4, 6, 8 and 16, the first of each
    with equal means, and 10 of the 75 window points of the cutoff_lin2d
    benchmark workload (lin2d_rot from (0.5, 0.5, 0, 0), eps = 1e-2, 1e-3,
    1e-4), recorded while the characteristic-function terms were laid out
    (row, node, direction).
    """
    path = os.path.join(os.path.dirname(__file__), "data", "gil_pelaez_pairs.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("pair", _gil_pelaez_pairs(), ids=lambda p: p["case"])
def test_gil_pelaez_keeps_its_recorded_bits(pair):
    lam, nu = (np.array([float.fromhex(v) for v in pair[key]]) for key in ("lam", "nu"))
    [(value, abserr, _)] = gaussian_tv._tv_gil_pelaez(*gaussian_tv._llr_terms(lam, nu))
    _assert_recorded_bits(pair, value, abserr)


def _assert_recorded_bits(pair: dict, value: float, abserr: float):
    if len(pair["lam"]) < 8:
        assert (value.hex(), abserr.hex()) == (pair["value"], pair["abserr"])
    else:
        # from d = 8 numpy sums a contiguous row pairwise, so the node-major
        # layout grouped the directions differently: rounding moves, nothing else
        assert abs(value - float.fromhex(pair["value"])) <= 1e-15
        assert abs(abserr - float.fromhex(pair["abserr"])) <= 1e-15


def _results_bits(res) -> tuple:
    return res.value.hex(), float(res.abserr).hex(), res.kind, res.route


def _stack(laws) -> Gaussian:
    return Gaussian(np.array([m for m, _ in laws]), np.array([S for _, S in laws]))


def _assert_stack_is_each_law_alone(laws, g2):
    stacked = tv_gaussian(_stack(laws), g2)
    assert isinstance(stacked, list) and len(stacked) == len(laws)
    for res, (m, S) in zip(stacked, laws):
        assert _results_bits(res) == _results_bits(tv_gaussian(Gaussian(m, S), g2))
    return stacked


class TestStackedCall:
    """A stack of first laws against one second law: each result is that law's result alone, bit for bit."""

    @pytest.mark.parametrize("d, branch", [(1, "one_d"), (2, "slicer"), (4, "gil_pelaez")])
    def test_every_branch_keeps_its_bits(self, d, branch):
        rng = np.random.default_rng(90 + d)
        T = _spd(rng, d)
        laws = [
            (rng.standard_normal(d), T),  # equal covariances: the closed form
            (80.0 * np.sqrt(np.diag(T)), 1.01 * T),  # 80 sd apart: saturated
            (rng.standard_normal(d), _spd(rng, d)),
            (np.zeros(d), _spd(rng, d)),
        ]
        stacked = _assert_stack_is_each_law_alone(laws, Gaussian(np.zeros(d), T))
        assert [res.route[0] for res in stacked] == ["closed_form", "saturated", branch, branch]

    def test_a_clamped_law_is_repaired_as_it_would_be_alone(self):
        rng = np.random.default_rng(6)
        clamped = []
        for _ in range(2):
            Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            S = Q @ np.diag([1.0, 0.5, 0.3, -1e-14]) @ Q.T
            clamped.append(0.5 * (S + S.T))
        laws = [(np.zeros(4), _spd(rng, 4)), (np.full(4, 40.0), clamped[0]), (np.ones(4), _spd(rng, 4)),
                (np.zeros(4), clamped[1])]
        stack, alone = _stack(laws), [Gaussian(m, S) for m, S in laws]
        assert stack.clamped.tolist() == [g.clamped for g in alone] == [False, True, False, True]
        for S, g in zip(stack.cov, alone):
            assert np.array_equal(_bits(S), _bits(g.cov))
        laws, stack, alone = laws[:3], _stack(laws[:3]), alone[:3]
        g2 = Gaussian(np.zeros(4), np.eye(4))
        try:  # the repaired law is singular to rounding: whitening may find it singular, alone and stacked
            single = tv_gaussian(alone[1], g2)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                tv_gaussian(stack, g2)
        else:
            assert single.route == ("saturated",)
            _assert_stack_is_each_law_alone(laws, g2)

    def test_the_second_law_is_one_law(self):
        stack = Gaussian(np.zeros((2, 3)), np.stack([np.eye(3)] * 2))
        with pytest.raises(ParameterError, match="the second law must be a single Gaussian"):
            tv_gaussian(Gaussian(np.zeros(3), np.eye(3)), stack)

    def test_a_one_row_stack_is_the_single_call(self):
        rng = np.random.default_rng(3)
        m, S, g2 = rng.standard_normal(4), _spd(rng, 4), Gaussian(np.zeros(4), _spd(rng, 4))
        [res] = tv_gaussian(Gaussian(m[None], S[None]), g2)
        assert _results_bits(res) == _results_bits(tv_gaussian(Gaussian(m, S), g2))

    def test_a_stack_without_a_gil_pelaez_row_never_integrates(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("no row needs the Gil-Pelaez integral")

        rng = np.random.default_rng(4)
        T = _spd(rng, 4)
        laws = [(rng.standard_normal(4), T), (np.full(4, 60.0), 1.02 * T), (np.zeros(4), T)]
        monkeypatch.setattr(gaussian_tv, "_tv_gil_pelaez", refuse)
        stacked = _assert_stack_is_each_law_alone(laws, Gaussian(np.zeros(4), T))
        assert [res.route for res in stacked] == [("closed_form",), ("saturated",), ("closed_form",)]

    def test_a_stack_of_dimension_64_spans_two_envelope_chunks(self):
        d, rng = 64, np.random.default_rng(64)
        rows = gaussian_tv._ENVELOPE_ELEMENTS // (2 * d * gaussian_tv._ENVELOPE_FIRST) + 2
        laws = []
        for _ in range(rows):
            E = 0.02 * rng.standard_normal((d, d))
            laws.append((0.05 * rng.standard_normal(d), np.eye(d) + 0.5 * (E + E.T)))
        stacked = _assert_stack_is_each_law_alone(laws, Gaussian(np.zeros(d), np.eye(d)))
        assert all(res.route == ("gil_pelaez",) and res.kind == "exact" for res in stacked)

    def test_the_recorded_pairs_keep_their_bits_as_one_stack_per_dimension(self):
        pairs, routes = _gil_pelaez_pairs(), []
        for d in sorted({len(p["lam"]) for p in pairs}):
            group = [p for p in pairs if len(p["lam"]) == d]
            lam, nu = (np.array([[float.fromhex(v) for v in p[key]] for p in group]) for key in ("lam", "nu"))
            stacked = gaussian_tv._tv_gil_pelaez(*gaussian_tv._llr_terms(lam, nu))
            for pair, (value, abserr, route) in zip(group, stacked):
                _assert_recorded_bits(pair, value, abserr)
                routes.append(route)
        assert len(routes) == 30
        assert sum("full_grid" in r for r in routes) == 1 and sum("qawf_tail" in r for r in routes) == 9


class TestGaussianType:
    def test_takes_only_a_mean_and_a_covariance(self):
        assert list(inspect.signature(Gaussian).parameters) == ["mean", "cov"]

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
