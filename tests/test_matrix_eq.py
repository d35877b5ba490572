import numpy as np
import pytest

from langmix.covflow import drift_matrix, noise_matrix
from langmix.errors import ParameterError, StabilityError
from langmix.errors import CertificationUnavailableWarning
from langmix.harness import STABLE_CORPUS, corpus_spec
from langmix.linear_stability import classify_linear, t_matrix
from langmix.matrix_eq import (
    _DELTA_CAP,
    _DELTA_DIRECTIONS,
    _DELTA_FLOOR,
    drift_metric,
    drift_metric_delta,
    gamma_matrix,
    inv_sqrt,
    lyapunov_quadrature,
    sigma_matrix,
    solve_lyapunov_stable,
)
from langmix.model import ModelSpec, make_linear_force, sample_ball


def random_stable_model(rng, d_max=4, eta_min=0.0):
    """Random (A, J) from a stable linear model with friction."""
    while True:
        d = int(rng.integers(1, d_max + 1))
        M = rng.standard_normal((d, d))
        gamma = float(rng.uniform(0.5, 3.0))
        v = classify_linear(M, gamma)
        if not v.stable or v.indeterminate:
            continue
        A = -t_matrix(M, gamma)
        if eta_min and np.max(np.linalg.eigvals(A).real) > -eta_min:
            continue
        if np.linalg.norm(M, 2) > 3.5:
            continue
        return A, noise_matrix(d), d


def kron_solve_left(U, W):
    """Dense Kronecker vectorization of U^T X + X U = -W (column-major vec)."""
    n = U.shape[0]
    I = np.eye(n)
    # vec(A X B) = (B^T kron A) vec(X) with column-major vec.
    K = np.kron(I, U.T) + np.kron(U.T, I)
    x = np.linalg.solve(K, -W.reshape(-1, order="F"))
    return x.reshape((n, n), order="F")


def loop_drift_metric_delta(spec):
    """Drift-metric radius with one drift_matrix and one norm per sampled direction."""
    G = drift_metric(spec).gamma_matrix
    A0 = drift_matrix(spec, np.zeros(spec.dim))
    dirs = sample_ball(spec.dim, 1.0, _DELTA_DIRECTIONS + 1)[1:]
    dirs = dirs / np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)

    def worst(delta):
        vals = []
        for u in dirs:
            D = drift_matrix(spec, delta * u) - A0
            vals.append(np.linalg.norm(D.T @ G + G @ D, 2))
        return float(np.max(vals))

    if worst(_DELTA_CAP) <= 0.5:
        return _DELTA_CAP
    lo, hi = _DELTA_FLOOR, _DELTA_CAP
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if worst(mid) <= 0.5:
            lo = mid
        else:
            hi = mid
    return lo


class TestSolver:
    def test_identity_case(self):
        sol = solve_lyapunov_stable(-np.eye(2), np.eye(2))
        assert np.allclose(sol.X, 0.5 * np.eye(2))
        assert sol.certified_pd

    def test_gradient_1d_closed_form(self):
        # A Sigma + Sigma A^T = -J for A = [[0, 1], [-k, -gamma]] gives
        # Sigma = diag(1/(2 gamma k), 1/(2 gamma))
        k, gamma = 1.7, 0.9
        A = np.array([[0.0, 1.0], [-k, -gamma]])
        J = np.diag([0.0, 1.0])
        sol = solve_lyapunov_stable(A, J)
        assert np.allclose(sol.X, np.diag([1 / (2 * gamma * k), 1 / (2 * gamma)]), atol=1e-12)
        assert sol.certified_pd

    def test_quadrature_cross_check(self, rng):
        A, J, _ = random_stable_model(rng, eta_min=0.15)
        sol = solve_lyapunov_stable(A, J)
        eta = -float(np.max(np.linalg.eigvals(A).real))
        Xq = lyapunov_quadrature(A, J, 40.0 / eta)
        assert np.linalg.norm(sol.X - Xq, "fro") < 1e-8 * max(1.0, np.linalg.norm(sol.X, "fro"))

    def test_matches_kronecker_oracle(self, rng):
        A, J, _ = random_stable_model(rng)
        xs = solve_lyapunov_stable(A.T, J).X
        assert np.allclose(xs, kron_solve_left(A, J), atol=1e-10)

    def test_residual_scale_invariant(self, rng):
        for _ in range(20):
            A, J, _ = random_stable_model(rng)
            sol = solve_lyapunov_stable(A, J)
            scale = np.linalg.norm(A, "fro") * np.linalg.norm(sol.X, "fro") + np.linalg.norm(J, "fro")
            assert sol.residual_fro <= 1e-10 * scale
            assert np.allclose(sol.X, sol.X.T)

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov_stable(np.eye(2), np.eye(2))

    def test_band_rejected(self):
        U = np.diag([-1.0, -1e-14])
        with pytest.raises(StabilityError):
            solve_lyapunov_stable(U, np.eye(2))

    def test_singular_lower_left_warns(self):
        # stable lower-triangular U has U12 = 0, so certification is unavailable
        U = np.array([[-1.0, 0.0], [1.0, -2.0]])
        W = np.diag([0.0, 1.0])
        with pytest.warns(CertificationUnavailableWarning):
            sol = solve_lyapunov_stable(U, W)
        assert not sol.certified_pd
        assert sol.residual_fro < 1e-12

    def test_no_momentum_forcing_gives_no_certificate(self):
        # W = diag(1, 0) forces only the position, so the structural
        # certificate (momentum forcing floor a > 0) is unavailable
        sol = solve_lyapunov_stable(np.array([[0.0, -1.0], [1.0, -1.0]]), np.diag([1.0, 0.0]))
        assert not sol.certified_pd
        assert sol.residual_fro < 1e-12

    def test_asymmetric_w_rejected(self):
        with pytest.raises(ParameterError):
            solve_lyapunov_stable(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGammaMatrix:
    def test_identity_case(self):
        dm = gamma_matrix(-np.eye(2))
        assert np.allclose(dm.gamma_matrix, 0.5 * np.eye(2))
        assert dm.xi == pytest.approx(0.5)

    def test_harmonic_residual(self):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        dm = gamma_matrix(A)
        resid = A.T @ dm.gamma_matrix + dm.gamma_matrix @ A + np.eye(2)
        assert np.linalg.norm(resid) < 1e-12
        assert np.min(np.linalg.eigvalsh(dm.gamma_matrix)) > 0

    def test_rayleigh_bounds(self, rng):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        dm = gamma_matrix(A)
        for _ in range(100):
            x = rng.standard_normal(2)
            x /= np.linalg.norm(x)
            val = x @ dm.gamma_matrix @ x
            assert dm.xi - 1e-12 <= val <= 1 / dm.xi + 1e-12


class TestSigmaMatrix:
    def test_gradient_1d(self, harmonic_spec):
        sig = sigma_matrix(harmonic_spec)
        g = harmonic_spec.gamma
        assert np.allclose(sig, np.diag([1 / (2 * g), 1 / (2 * g)]), atol=1e-12)

    def test_gradient_block_diagonal(self):
        # Sigma = (1/2 gamma) blockdiag(H^{-1}, I) for F = H q with H spd
        H = np.array([[2.0, 0.4], [0.4, 5.0]])
        gamma = 1.3
        spec = ModelSpec(make_linear_force(H), gamma, alpha=0.5, beta=0.7)
        sig = sigma_matrix(spec)
        expected = np.zeros((4, 4))
        expected[:2, :2] = np.linalg.inv(H) / (2 * gamma)
        expected[2:, 2:] = np.eye(2) / (2 * gamma)
        assert np.allclose(sig, expected, atol=1e-12)

    def test_nongradient_spd_with_quadrature(self):
        spec = ModelSpec(make_linear_force([[1.0, -1.0], [1.0, 1.0]]), 3.0, alpha=0.45, beta=2.0)
        sig = sigma_matrix(spec)
        assert np.min(np.linalg.eigvalsh(sig)) > 0
        A = drift_matrix(spec, np.zeros(2))
        Xq = lyapunov_quadrature(A, noise_matrix(2), 40.0)
        assert np.linalg.norm(sig - Xq, "fro") < 1e-10

    def test_unstable_model_rejected(self):
        spec = ModelSpec(make_linear_force([[1.0, -2.0], [2.0, 1.0]]), 1.0, alpha=0.3, beta=0.9)
        with pytest.raises(StabilityError):
            sigma_matrix(spec)

    @pytest.mark.parametrize("M", [[[0.0]], [[-1.0]]], ids=["zero", "negative"])
    def test_df0_eigenvalue_without_positive_real_part_rejected(self, M):
        # A has an eigenvalue mu with mu^2 + gamma mu + m = 0, Re mu >= 0
        spec = ModelSpec(make_linear_force(M), 1.0, alpha=2 / 3, beta=0.5)
        with pytest.raises(StabilityError, match="not \\(strictly\\) stable"):
            sigma_matrix(spec)

    def test_cached_per_spec(self, harmonic_spec):
        assert sigma_matrix(harmonic_spec) is sigma_matrix(harmonic_spec)

    def test_inverse_square_root(self):
        S = np.array([[2.0, 0.4], [0.4, 5.0]])
        R = inv_sqrt(S, "S")
        assert np.allclose(R @ S @ R, np.eye(2), atol=1e-14) and np.allclose(R, R.T)
        # the one error of a singular covariance, as in gaussian_tv
        with pytest.raises(np.linalg.LinAlgError, match="S is singular"):
            inv_sqrt(np.diag([1.0, 0.0]), "S")


class TestDriftMetricDelta:
    def test_linear_returns_cap(self, harmonic_spec):
        assert drift_metric_delta(harmonic_spec) == 1.0

    def test_cached_per_spec(self, quartic_spec, monkeypatch):
        delta = drift_metric_delta(quartic_spec)
        monkeypatch.setattr(quartic_spec.force, "eval_DF", None)  # a second search would fail
        assert drift_metric_delta(quartic_spec) == delta

    def test_quartic_bisection_value(self):
        # DF(q) - DF(0) = 3 q^2, so the condition reads 3 delta^2 c = 1/2 with
        # c the metric norm of the unit perturbation pattern
        qspec = corpus_spec("quartic")
        qspec = ModelSpec(qspec.force, 2.0, alpha=2 / 3, beta=1.0)
        delta = drift_metric_delta(qspec)
        dm = drift_metric(qspec)
        E = np.array([[0.0, 0.0], [-1.0, 0.0]])
        c = np.linalg.norm(E.T @ dm.gamma_matrix + dm.gamma_matrix @ E, 2)
        assert 3 * delta**2 * c == pytest.approx(0.5, rel=1e-6)

    #: drift_metric_delta of each corpus model when sample_ball drew from a
    #: scrambled Sobol sequence: no model's delta depends on the point set
    #: (1-d directions are +-1, and a linear force takes the cap)
    SOBOL_DELTAS = {
        "lin1d_complex": 1.0,
        "lin1d_real": 1.0,
        "lin1d_critical": 1.0,
        "lin2d_rot": 1.0,
        "lin2d_nongrad": 1.0,
        "quartic": float.fromhex("0x1.6a09e667f3bcep-2"),
    }

    @pytest.mark.parametrize("name", STABLE_CORPUS)
    def test_same_as_with_sobol_directions(self, name):
        assert drift_metric_delta(corpus_spec(name)) == self.SOBOL_DELTAS[name]

    @pytest.mark.parametrize("name", STABLE_CORPUS)
    def test_matches_loop_oracle(self, name):
        assert drift_metric_delta(corpus_spec(name)) == loop_drift_metric_delta(corpus_spec(name))

    def test_drift_inequality_spot_check(self, rng, quartic_spec):
        delta = drift_metric_delta(quartic_spec)
        dm = drift_metric(quartic_spec)
        G, xi = dm.gamma_matrix, dm.xi
        for _ in range(100):
            q = rng.uniform(-delta, delta, size=1)
            Aq = drift_matrix(quartic_spec, q)
            y = rng.standard_normal(2)
            assert 2 * y @ G @ Aq @ y <= -(xi / 2) * (y @ G @ y) + 1e-9
