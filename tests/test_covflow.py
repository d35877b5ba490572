import numpy as np
import pytest
import scipy.linalg as sla

from langmix import covflow
from langmix.covflow import (
    _ode_path,
    drift_matrix,
    integrate_covariance,
    noise_matrix,
    short_time_covariance,
    stationary_gap,
)
from langmix.cutoff import curve_point_tv, cutoff_curve, stationary_law
from langmix.errors import DivergenceError, ParameterError, StabilityError
from langmix.gaussian_tv import TV_TOL
from langmix.harness import (
    UNSTABLE_GAMMA,
    UNSTABLE_MATRIX,
    corpus_spec,
    spec_from_model_config,
)
from langmix.matrix_eq import sigma_matrix
from langmix.model import ModelSpec, _polynomial_gradient_force

LINEAR_CORPUS = ["lin1d_complex", "lin1d_real", "lin1d_critical", "lin2d_rot", "lin2d_nongrad"]


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
        spec = ModelSpec(_polynomial_gradient_force([0, 0, 0.5, 0, -0.25]), 1.5, alpha=2 / 3, beta=0.75)
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

    @pytest.mark.parametrize("t_end, dt", [(-22.88, 0.01), (0.004, 0.01), (1.0, 0.0)])
    def test_a_path_without_a_step_names_t_end_and_dt(self, harmonic_spec, t_end, dt):
        with pytest.raises(ParameterError, match=f"got t_end {t_end:g} and dt {dt:g}$"):
            integrate_covariance(harmonic_spec, np.array([0.6, 0.4]), t_end, dt)


class TestLinearClosedForm:
    """A linear force gets the exact Gaussian path instead of the covariance ODE."""

    @pytest.mark.parametrize("name", LINEAR_CORPUS)
    def test_matches_the_ode_oracle(self, name):
        spec = corpus_spec(name)
        x0 = np.full(2 * spec.dim, 0.5)
        path = integrate_covariance(spec, x0, 10.0, 0.005)
        states, covs = _ode_path(spec, x0, path.grid, path.grid[-1])
        assert np.abs(path.states - states).max() <= 1e-10
        assert np.abs(path.covs - covs).max() <= 1e-10
        assert np.all(path.covs[0] == 0.0)
        assert path.clamp_events == 0

    @pytest.mark.parametrize(
        "name, x0", [("lin1d_complex", (0.6, 0.3)), ("lin2d_rot", (0.5, 0.5, 0.0, 0.0)), ("lin1d_critical", (0.6, 0.3))]
    )
    def test_exact_curve_points_hold_at_tiny_noise(self, name, x0):
        # The mean enters the TV as m_t / sqrt(2 eps), so a path error of
        # 1e-13 on the state would be a TV error of ~1e-8 at eps = 1e-10.
        spec = corpus_spec(name)
        x0 = np.array(x0)
        sigma = sigma_matrix(spec)
        A = drift_matrix(spec, np.zeros(spec.dim))
        run = cutoff_curve(spec, x0, [1e-8, 1e-10], {"min": -6.0, "max": 6.0, "step": 0.5}, 0.005)
        worst = 0.0
        for curve in run.curves:
            assert curve.step.size
            for t, tv in zip(curve.t, curve.tv):
                E = sla.expm(A * t)
                stationary = stationary_law(sigma, curve.epsilon)
                ref = curve_point_tv(E @ x0, sigma - E @ sigma @ E.T, stationary, curve.epsilon).value
                worst = max(worst, abs(tv.value - ref))
        assert worst <= TV_TOL

    def test_unstable_linear_force_raises_before_any_work(self, monkeypatch):
        model = {"force": {"type": "linear", "matrix": UNSTABLE_MATRIX}, "gamma": UNSTABLE_GAMMA, "alpha": 0.3, "beta": 0.9}
        spec = spec_from_model_config(model)

        def no_work(*args, **kwargs):
            raise AssertionError("path computed for a model without Sigma")

        monkeypatch.setattr(covflow, "expm", no_work)
        monkeypatch.setattr(covflow, "solve_path", no_work)
        with pytest.raises(StabilityError, match=r"not \(strictly\) stable"):
            integrate_covariance(spec, np.array([0.5, 0.2, 0.0, 0.0]), 10.0, 0.01)


class TestChosenSteps:
    """integrate_covariance(..., steps=S) evaluates only S, with the whole grid's bits."""

    STEPS = [0, 3, 4, 57, 58, 400, 1203, 1204, 1205, 1599]

    @pytest.mark.parametrize(
        "name, x0", [("lin2d_rot", (0.5, 0.5, 0.0, 0.0)), ("quartic", (1.5, 0.0))], ids=["lin2d_rot", "quartic"]
    )
    def test_equals_the_whole_grid_bit_for_bit(self, name, x0):
        spec = corpus_spec(name)
        full = integrate_covariance(spec, np.array(x0), 8.0, 0.005)
        part = integrate_covariance(spec, np.array(x0), 8.0, 0.005, steps=self.STEPS[::-1] + [57])
        k = self.STEPS
        assert not part.dense and np.array_equal(part.grid, full.grid[k])
        assert np.array_equal(part.states, full.states[k])
        assert np.array_equal(part.covs, full.covs[k])
        for t in part.grid:
            x, c = part.at(t)
            assert np.array_equal(x, full.at(t)[0]) and np.array_equal(c, full.at(t)[1])

    def test_at_answers_only_at_its_evaluated_times(self, harmonic_spec):
        path = integrate_covariance(harmonic_spec, np.array([0.6, 0.3]), 2.0, 0.01, steps=[10, 12])
        assert path.grid.tolist() == [10 * 0.01, 12 * 0.01]
        x, c = path.at(0.12)
        assert np.array_equal(x, path.states[1]) and np.array_equal(c, path.covs[1])
        for t in (0.11, 0.1 + 1e-9, 0.5, 0.0, 2.0, 2.5):
            with pytest.raises(ParameterError):
                path.at(t)
        # the whole grid still interpolates between neighbours
        full = integrate_covariance(harmonic_spec, np.array([0.6, 0.3]), 2.0, 0.01)
        assert full.dense
        assert np.allclose(full.at(0.115)[1], 0.5 * (full.covs[11] + full.covs[12]))

    @pytest.mark.parametrize("t", [-0.01, 2.0 + 1e-9, 2.5])
    def test_the_whole_grid_refuses_times_outside_its_range(self, harmonic_spec, t):
        full = integrate_covariance(harmonic_spec, np.array([0.6, 0.3]), 2.0, 0.01)
        with pytest.raises(ParameterError, match=r"outside the integrated range \[0\.0, 2\.0\]"):
            full.at(t)

    def test_no_steps_give_an_empty_path(self, harmonic_spec, quartic_spec):
        for spec in (harmonic_spec, quartic_spec):
            path = integrate_covariance(spec, np.array([0.6, 0.3]), 2.0, 0.01, steps=[])
            assert path.grid.shape == (0,) and path.states.shape == (0, 2) and path.covs.shape == (0, 2, 2)
            assert path.clamp_events == 0
            with pytest.raises(ParameterError):
                path.at(0.0)

    @pytest.mark.parametrize("steps", [[-1], [201], [0.5, 1.0], [[1, 2]]])
    def test_steps_off_the_grid_are_refused(self, harmonic_spec, steps):
        with pytest.raises(ParameterError, match="steps"):
            integrate_covariance(harmonic_spec, np.array([0.6, 0.3]), 2.0, 0.01, steps=steps)


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
        rep = stationary_gap(harmonic_spec, np.array([0.6, 0.3]), 20.0)
        sigma = sigma_matrix(harmonic_spec)
        assert rep.gaps[0] == pytest.approx(np.linalg.norm(sigma, "fro"))
        assert rep.fitted_rate > 0
        assert rep.consistent

    def test_tail_monotone_after_burn_in(self, harmonic_spec):
        rep = stationary_gap(harmonic_spec, np.zeros(2), 20.0)
        tail = rep.gaps[len(rep.gaps) // 2 :]
        assert np.all(np.diff(tail) <= 1e-12)
