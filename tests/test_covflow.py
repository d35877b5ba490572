import numpy as np
import pytest

from langmix.covflow import (
    drift_matrix,
    integrate_covariance,
    noise_matrix,
    short_time_covariance,
    stationary_gap,
)
from langmix.errors import DivergenceError, ParameterError
from langmix.linear_stability import make_spec
from langmix.matrix_eq import sigma_matrix
from langmix.model import _polynomial_gradient_force


class TestDriftMatrix:
    def test_at_origin(self, harmonic_spec):
        A = drift_matrix(harmonic_spec, np.zeros(1))
        assert np.array_equal(A, [[0.0, 1.0], [-1.0, -1.0]])

    def test_linear_is_constant(self, harmonic_spec):
        A0 = drift_matrix(harmonic_spec, np.zeros(1))
        A1 = drift_matrix(harmonic_spec, np.array([2.7]))
        assert np.array_equal(A0, A1)

    def test_quartic_at_two(self, quartic_spec):
        A = drift_matrix(quartic_spec, np.array([2.0]))
        assert np.array_equal(A, [[0.0, 1.0], [-13.0, -quartic_spec.gamma]])


class TestIntegrateCovariance:
    def test_starts_at_zero_with_momentum_flux(self, harmonic_spec):
        path = integrate_covariance(harmonic_spec, np.array([0.5, 0.1]), 0.01, 0.001)
        assert np.all(path.covs[0] == 0.0)
        # one-step derivative ~ J
        deriv = (path.covs[1] - path.covs[0]) / 0.001
        assert np.abs(deriv - noise_matrix(1)).max() < 5e-3

    def test_converges_to_stationary(self, harmonic_spec):
        sigma = sigma_matrix(harmonic_spec)
        path = integrate_covariance(harmonic_spec, np.array([0.6, 0.3]), 30.0, 0.5)
        assert np.linalg.norm(path.covs[-1] - sigma, "fro") < 1e-6
        assert np.allclose(sigma, np.diag([0.5, 0.5]), atol=1e-12)

    def test_psd_along_path(self, quartic_spec):
        path = integrate_covariance(quartic_spec, np.array([0.9, -0.2]), 8.0, 0.005)
        assert path.clamp_events == 0
        for c in path.covs[:: len(path.covs) // 20]:
            assert np.min(np.linalg.eigvalsh(c)) >= -1e-15

    def test_divergence_and_solver_failure_raise(self, quartic_spec, monkeypatch):
        # inverted quartic U = q^2/2 - q^4/4 blows up after t = 2.5 from (1.2, 0)
        spec = make_spec(_polynomial_gradient_force([0, 0, 0.5, 0, -0.25]), 1.5, alpha=2 / 3, beta=0.75)
        with pytest.raises(DivergenceError, match="diverged") as blown:
            integrate_covariance(spec, np.array([1.2, 0.0]), 10.0, 0.01)
        assert 2.5 < blown.value.t < 3.0
        # a force that turns NaN inside |q| < 0.5
        eval_F = quartic_spec.force.eval_F
        nan_inside = lambda q: eval_F(q) * (np.nan if abs(q[0]) < 0.5 else 1.0)
        monkeypatch.setattr(quartic_spec.force, "eval_F", nan_inside)
        with pytest.raises(DivergenceError, match="solver failed"):
            integrate_covariance(quartic_spec, np.array([1.2, 0.0]), 10.0, 0.01)
        with pytest.raises(DivergenceError, match="not finite"):
            integrate_covariance(quartic_spec, np.array([0.2, 0.0]), 10.0, 0.01)

    def test_bad_arguments(self, harmonic_spec):
        with pytest.raises(ParameterError):
            integrate_covariance(harmonic_spec, np.zeros(2), 1.0, -0.1)
        with pytest.raises(ParameterError):
            integrate_covariance(harmonic_spec, np.zeros(3), 1.0, 0.1)


class TestShortTime:
    def test_position_block_universal(self, harmonic_spec, quartic_spec):
        for spec in (harmonic_spec, quartic_spec):
            S = short_time_covariance(spec, np.array([0.7, -0.1]), 0.05)
            assert np.allclose(S[:1, :1], (0.05**3 / 3.0) * np.eye(1))

    def test_fourth_order_remainder(self, harmonic_spec):
        ts = np.geomspace(1e-3, 1e-1, 8)
        x0 = np.array([0.6, 0.3])
        errs = []
        for t in ts:
            p = integrate_covariance(harmonic_spec, x0, t, t / 200.0)
            errs.append(np.linalg.norm(p.covs[-1] - short_time_covariance(harmonic_spec, x0, t), "fro"))
        slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_inverse_sqrt_scaling(self, harmonic_spec):
        x0 = np.array([0.6, 0.3])
        for t in np.geomspace(1e-3, 1e-1, 6):
            p = integrate_covariance(harmonic_spec, x0, t, t / 200.0)
            lam_min = np.linalg.eigvalsh(p.covs[-1])[0]
            assert t**1.5 / np.sqrt(lam_min) < 7.0  # stays near sqrt(12)


class TestStationaryGap:
    def test_positive_rate_and_initial_gap(self, harmonic_spec):
        rep = stationary_gap(harmonic_spec, np.array([0.6, 0.3]), 20.0, 0.01)
        sigma = sigma_matrix(harmonic_spec)
        assert rep.gaps[0] == pytest.approx(np.linalg.norm(sigma, "fro"))
        assert rep.fitted_rate > 0
        assert rep.consistent

    def test_tail_monotone_after_burn_in(self, harmonic_spec):
        rep = stationary_gap(harmonic_spec, np.zeros(2), 20.0, 0.01)
        tail = rep.gaps[len(rep.gaps) // 2 :]
        assert np.all(np.diff(tail) <= 1e-12)
