import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from langmix import cli, cutoff, linear_stability
from langmix.covflow import drift_matrix, integrate_covariance
from langmix.cutoff import (
    curve_point_tv,
    cutoff_curve,
    jordan_chains,
    mixing_time,
    profile_D,
    profile_lambda,
    profile_lambda_alt,
    profile_limit_r,
    profile_vector,
    spectral_data,
    stationary_law,
)
from langmix.errors import DivergenceError, DomainError, ParameterError, StabilityError
from langmix.gaussian_tv import tv_unit
from langmix.harness import corpus_model_config, corpus_spec
from langmix.linear_stability import flow_zero_noise
from langmix.matrix_eq import drift_metric_delta, sigma_matrix
from langmix.model import ModelSpec, _polynomial_gradient_force


GOLDEN_SLOW = (3 - math.sqrt(5)) / 2
GOLDEN_FAST = (3 + math.sqrt(5)) / 2


class TestJordanChains:
    def test_defective_4x4_block_structure(self):
        J = np.array([[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -2.0]])
        P = np.random.default_rng(0).standard_normal((4, 4))
        A = P @ J @ np.linalg.inv(P)
        chains, flagged = jordan_chains(A)
        blocks = sorted((round(c.eigenvalue.real, 6), c.length) for c in chains)
        assert blocks == [(-2.0, 1), (-1.0, 1), (-1.0, 2)]
        assert not flagged

    def test_chain_relation(self):
        A = np.array([[0.0, 1.0], [-1.0, -2.0]])  # critical damping
        chains, _ = jordan_chains(A)
        assert len(chains) == 1 and chains[0].length == 2
        mu = chains[0].eigenvalue
        w = chains[0].vectors
        assert np.linalg.norm((A - mu * np.eye(2)) @ w[0] - w[1]) < 1e-10
        assert np.linalg.norm((A - mu * np.eye(2)) @ w[1]) < 1e-10

    def test_conjugate_pairs_share_conjugated_chains(self):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        chains, _ = jordan_chains(A)
        assert len(chains) == 2
        assert np.allclose(chains[0].vectors.conj(), chains[1].vectors)


class TestSpectralData:
    def test_real_spectrum_constants(self, real_spectrum_spec):
        sd = spectral_data(real_spectrum_spec, np.array([0.6, 0.4]))
        assert sd.eta == pytest.approx(GOLDEN_SLOW, abs=1e-10)
        assert sd.nu == 0
        assert sd.tau == 0.0
        assert np.allclose(sd.phases, 0.0)
        assert sd.generic_x

    def test_critical_damping_jordan_branch(self):
        from langmix.harness import corpus_spec

        spec = corpus_spec("lin1d_critical")
        sd = spectral_data(spec, np.array([0.5, 0.1]))
        assert sd.eta == pytest.approx(1.0, abs=1e-8)
        assert sd.nu == 1
        assert any(size == 2 for _, size in sd.jordan_blocks)

    def test_fast_aligned_direction_drops_slow_mode(self, real_spectrum_spec):
        A = drift_matrix(real_spectrum_spec, np.zeros(1))
        vals, vecs = np.linalg.eig(A)
        fast = np.real(vecs[:, np.argmin(vals.real)])
        fast = 0.5 * fast / np.linalg.norm(fast)
        sd = spectral_data(real_spectrum_spec, fast)
        assert sd.eta == pytest.approx(GOLDEN_FAST, abs=1e-8)
        assert not sd.generic_x

    def test_zero_start_rejected(self, real_spectrum_spec):
        with pytest.raises(DomainError):
            spectral_data(real_spectrum_spec, np.zeros(2))

    @pytest.mark.parametrize("x", [[1.0, 0.0, 0.0], []], ids=["three", "empty"])
    def test_start_of_the_wrong_length_rejected(self, quartic_spec, x):
        with pytest.raises(ParameterError, match=r"x0 must have shape \(2,\)"):
            spectral_data(quartic_spec, np.array(x))

    @pytest.mark.parametrize("x", ["1.0,0.0,0.0", "1.0"])
    def test_cli_mixing_time_rejects_a_start_of_the_wrong_length(self, tmp_path, capsys, x):
        config = tmp_path / "model.json"
        config.write_text(json.dumps({"schema_version": 1, "seed": 0, "model": corpus_model_config("quartic")}))
        assert cli.main(["mixing-time", "--config", str(config), "--x", x, "--epsilon", "0.01"]) == 2
        assert capsys.readouterr().err == "langmix mixing-time: error: x0 must have shape (2,)\n"

    def test_vectors_linearly_independent(self, harmonic_spec):
        sd = spectral_data(harmonic_spec, np.array([0.6, 0.3]))
        assert sd.m == 2  # conjugate pair
        assert np.linalg.matrix_rank(sd.vectors) == sd.m

    def test_nonlinear_start_outside_ball_gets_shift(self, quartic_spec):
        sd = spectral_data(quartic_spec, np.array([2.5, 0.0]))
        assert sd.tau > 1.0  # entry time plus one
        assert np.linalg.norm(sd.expansion_point) <= 1.0 + 1e-6


#: the reporting grid of the whole path the event-located search is compared with
PATH_DT = 1e-3


class TestBallEntrySearch:
    def test_force_evaluations_bounded(self, quartic_spec, monkeypatch):
        # a fixed fourth-order step of 1e-3 to one time unit past the entry would take about 12,000
        calls = []
        eval_F = quartic_spec.force.eval_F

        def counting(q):
            calls.append(1)
            return eval_F(q)

        monkeypatch.setattr(quartic_spec.force, "eval_F", counting)
        spectral_data(quartic_spec, np.array([1.5, 0.0]))
        assert len(calls) <= 2000

    @pytest.mark.parametrize("x", [(1.5, 0.0), (2.5, 0.0), (3.0, -2.0), (0.0, 4.0)])
    def test_matches_one_unsegmented_path(self, quartic_spec, x):
        x = np.array(x)
        sd = spectral_data(quartic_spec, x)
        path = flow_zero_noise(quartic_spec, x, 6.0, PATH_DT)
        inside = np.nonzero(np.linalg.norm(path.states, axis=1) <= drift_metric_delta(quartic_spec))[0]
        assert abs(sd.tau - (float(path.grid[inside[0]]) + 1.0)) <= 1e-3
        # a grid that ends exactly at tau
        n = math.ceil(sd.tau / 1e-4)
        fine = flow_zero_noise(quartic_spec, x, sd.tau, sd.tau / n)
        assert np.abs(sd.expansion_point - fine.states[-1]).max() <= 1e-9

    def test_never_entered_ball_raises_at_the_horizon(self, monkeypatch):
        # double well U = q^4/4 - q^2/2: from (1.5, 0) the flow settles at (1, 0)
        spec = ModelSpec(_polynomial_gradient_force([0, 0, -0.5, 0, 0.25]), 1.5, alpha=2 / 3, beta=0.75)
        # the ball radius and the search horizon read the radius in two modules
        for module in (cutoff, linear_stability):
            monkeypatch.setattr(module, "drift_metric_delta", lambda spec: 0.5)
        with pytest.raises(StabilityError, match="never entered"):
            spectral_data(spec, np.array([1.5, 0.0]))

    def test_divergence_reports_the_time_since_the_start(self):
        # inverted quartic U = q^2/2 - q^4/4: past the barrier at q = 1 the
        # path blows up after t = 2.5
        spec = ModelSpec(_polynomial_gradient_force([0, 0, 0.5, 0, -0.25]), 1.5, alpha=2 / 3, beta=0.75)
        x = np.array([1.2, 0.0])
        with pytest.raises(DivergenceError) as whole:
            flow_zero_noise(spec, x, 10.0, PATH_DT)
        with pytest.raises(DivergenceError) as searched:
            spectral_data(spec, x)
        assert abs(searched.value.t - whole.value.t) <= 1e-2


class TestMixingTime:
    def _sd(self, eta, nu, tau):
        from langmix.cutoff import SpectralData

        return SpectralData(
            eta=eta, nu=nu, tau=tau, phases=np.zeros(1),
            vectors=np.ones((1, 2), dtype=complex), jordan_blocks=[],
            generic_x=True, flagged=False, expansion_point=np.ones(2),
        )

    def test_plain_arithmetic(self):
        assert mixing_time(self._sd(0.5, 0, 0.0), 1 / (2 * math.e**2)) == pytest.approx(2.0)

    def test_jordan_correction(self):
        val = mixing_time(self._sd(1.0, 1, 0.0), 1 / (2 * math.exp(math.e)))
        assert val == pytest.approx(math.e / 2 + 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            mixing_time(self._sd(1.0, 0, 0.0), 0.5)
        with pytest.raises(DomainError):
            mixing_time(self._sd(1.0, 0, 0.0), -0.1)

    def test_divergence_as_epsilon_shrinks(self):
        sd = self._sd(0.7, 1, 2.0)
        vals = [mixing_time(sd, e) for e in (1e-2, 1e-4, 1e-8, 1e-12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestProfiles:
    def test_profile_D_matches_unit_tv(self, real_spectrum_spec):
        sd = spectral_data(real_spectrum_spec, np.array([0.6, 0.4]))
        t = 5.0
        v = profile_vector(real_spectrum_spec, sd, t)
        eps = float(v @ v) / 8.0  # calibrate so |v| / sqrt(2 eps) = 2
        d = profile_D(real_spectrum_spec, sd, t, eps)
        assert d == pytest.approx(0.6826894921, abs=1e-9)
        assert d == pytest.approx(tv_unit(v / math.sqrt(2 * eps)), abs=1e-15)

    def test_profile_D_needs_t_past_tau(self, quartic_spec):
        sd = spectral_data(quartic_spec, np.array([2.5, 0.0]))
        with pytest.raises(DomainError):
            profile_D(quartic_spec, sd, sd.tau / 2.0, 1e-3)

    def test_profile_lambda_worked_value(self):
        sd = TestMixingTime()._sd(0.5, 0, 0.0)
        # quadrature oracle for 2 int_0^sqrt(2) phi(t) dt
        oracle = 2 * quad(
            lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), 0.0, math.sqrt(2.0)
        )[0]
        assert oracle == pytest.approx(0.8427007929, abs=1e-9)
        assert float(profile_lambda(sd, 0.0)) == pytest.approx(oracle, abs=1e-12)

    def test_profile_lambda_limits(self):
        sd = TestMixingTime()._sd(0.7, 1, 0.0)
        assert float(profile_lambda(sd, 40.0)) < 1e-8
        assert float(profile_lambda(sd, -40.0)) == pytest.approx(1.0)
        assert float(profile_lambda_alt(sd, 40.0, 2.0)) < 1e-8
        assert float(profile_lambda_alt(sd, -40.0, 2.0)) == pytest.approx(1.0)


class TestProfileLimit:
    def test_real_spectrum_exists_exactly(self, real_spectrum_spec):
        sd = spectral_data(real_spectrum_spec, np.array([0.6, 0.4]))
        pl = profile_limit_r(real_spectrum_spec, sd)
        assert pl.exists and pl.oscillation == 0.0
        assert pl.r > 0
        sigma = sigma_matrix(real_spectrum_spec)
        w, vv = np.linalg.eigh(sigma)
        inv_sqrt = (vv / np.sqrt(w)) @ vv.T
        direct = np.linalg.norm(inv_sqrt @ np.real(np.sum(sd.vectors, axis=0)))
        assert pl.r == pytest.approx(direct)

    def test_complex_pair_oscillates(self, harmonic_spec):
        sd = spectral_data(harmonic_spec, np.array([0.6, 0.3]))
        pl = profile_limit_r(harmonic_spec, sd)
        assert not pl.exists
        assert pl.oscillation > 0.1


def _whole_grid_curves(spec, x0, epsilons, w_grid, dt):
    """Per epsilon, the window rows (w, step, t, TVResult, D_eps, Lambda_printed, Lambda_alt) from a whole-grid path.

    The window rule as the cut-off pipeline states it: w over np.arange(min, max + 1e-12, step), the
    time t_mix + w snapped to k dt, kept on [max(tau, 4 dt), t_max] with t_max = max t_mix + w_max + 1.
    """
    sd = spectral_data(spec, x0)
    pl = profile_limit_r(spec, sd)
    sigma = sigma_matrix(spec)
    tmix = [mixing_time(sd, eps) for eps in epsilons]
    t_max = max(tmix) + w_grid["max"] + 1.0
    path = integrate_covariance(spec, x0, t_max, dt)
    curves = []
    for eps, tm in zip(epsilons, tmix):
        rows = []
        for w in np.arange(w_grid["min"], w_grid["max"] + 1e-12, w_grid["step"]):
            k = int(round((tm + w) / dt))
            t = k * dt
            if max(sd.tau, 4 * dt) <= t <= t_max:
                lam_alt = float(profile_lambda_alt(sd, w, pl.r)) if pl.exists else float("nan")
                tv = curve_point_tv(*path.at(t), stationary_law(sigma, eps), eps)
                rows.append((w, k, t, tv, profile_D(spec, sd, t, eps),
                             float(profile_lambda(sd, w)), lam_alt))
        curves.append(rows)
    return curves


class TestCutoffCurve:
    @pytest.mark.parametrize(
        "name, x0, w_grid",
        [
            ("lin1d_complex", (0.6, 0.3), {"min": -6.0, "max": 6.0, "step": 0.5}),
            ("quartic", (1.5, 0.0), {"min": -4.0, "max": 4.0, "step": 1.0}),
            # 0.7 does not divide 6: the last grid point is 2.6, and a t_max
            # taken from it would change the path's step count and its bits
            ("lin2d_rot", (0.5, 0.5, 0.0, 0.0), {"min": -3.0, "max": 3.0, "step": 0.7}),
            ("quartic", (1.5, 0.0), {"min": -3.0, "max": 3.0, "step": 0.7}),
        ],
        ids=["lin1d_complex", "quartic", "lin2d_rot_uneven", "quartic_uneven"],
    )
    def test_matches_a_whole_grid_loop_bit_for_bit(self, name, x0, w_grid):
        spec, epsilons, dt = corpus_spec(name), [1e-2, 1e-3], 0.005
        run = cutoff_curve(spec, np.array(x0), epsilons, w_grid, dt)
        oracle = _whole_grid_curves(spec, np.array(x0), epsilons, w_grid, dt)
        assert [curve.epsilon for curve in run.curves] == epsilons
        for curve, rows in zip(run.curves, oracle):
            assert curve.t_mix == mixing_time(run.spectral, curve.epsilon)
            assert curve.step.size == len(rows) > 0
            w, k, t, tv, d_eps, lam, lam_alt = zip(*rows)
            for column, expected in [(curve.w, w), (curve.step, k), (curve.t, t), (curve.D_eps, d_eps),
                                     (curve.Lambda_printed, lam), (curve.Lambda_alt, lam_alt)]:
                assert np.array_equal(column, expected, equal_nan=True)
            assert [(r.value, r.kind, r.abserr) for r in curve.tv] == [(r.value, r.kind, r.abserr) for r in tv]
            summary = curve.summary()
            assert summary["sup_diff"] == max(abs(r.value - d) for r, d in zip(tv, d_eps))
            assert summary["window_points"] == len(rows) and summary["t_mix"] == curve.t_mix
        assert run.covariance_points == len({k for rows in oracle for _, k, *_ in rows})

    def test_builds_the_stationary_law_once_per_epsilon(self, monkeypatch):
        # every window point of an epsilon reads the one N(0, 2 eps Sigma) of that epsilon
        builds, gaussian = [], cutoff.Gaussian

        def recording(mean, cov):
            builds.append(np.array(cov))
            return gaussian(mean=mean, cov=cov)

        monkeypatch.setattr(cutoff, "Gaussian", recording)
        spec, epsilons = corpus_spec("lin2d_rot"), [1e-2, 1e-3]
        run = cutoff_curve(spec, np.array([0.5, 0.5, 0.0, 0.0]), epsilons, {"min": -2.0, "max": 2.0, "step": 1.0},
                           0.005)
        sigma = sigma_matrix(spec)
        for eps in epsilons:
            assert sum(np.array_equal(cov, 2.0 * eps * sigma) for cov in builds) == 1
        assert len(builds) == sum(curve.step.size for curve in run.curves) + len(epsilons)

    def test_an_empty_window_gives_empty_columns(self):
        # t_mix is 5.12, so the whole window lies before t = 4 dt, while
        # t_max = 0.62 still holds a step: nothing to evaluate, and no error
        run = cutoff_curve(corpus_spec("lin1d_real"), [0.6, 0.4], [1e-2],
                           {"min": -9.5, "max": -5.5, "step": 0.5}, 0.01)
        assert run.covariance_points == 0 and run.clamp_events == 0
        for curve in run.curves:
            assert curve.tv == []
            for column in (curve.w, curve.step, curve.t, curve.D_eps, curve.Lambda_printed, curve.Lambda_alt):
                assert column.shape == (0,)
            assert curve.summary() == {"t_mix": curve.t_mix, "sup_diff": 0.0, "window_points": 0,
                                       "tv_inexact": 0, "tv_max_abserr": 0.0}

    def test_a_window_before_the_first_step_evaluates_no_path(self, monkeypatch):
        # t_mix is 5.12, so t_max = 5.12 - 29 + 1 is below dt: no epsilon keeps a step
        calls = []
        monkeypatch.setattr(cutoff, "integrate_covariance", lambda *args, **kwargs: calls.append(args))
        run = cutoff_curve(corpus_spec("lin1d_real"), [0.6, 0.4], [1e-2],
                           {"min": -30.0, "max": -29.0, "step": 0.5}, 0.01)
        assert calls == [] and run.covariance_points == 0 and run.clamp_events == 0
        assert [curve.summary()["window_points"] for curve in run.curves] == [0]

    @pytest.mark.parametrize(
        "x0, epsilons, dt, error, match",
        [
            ([0.6, 0.3], [1e-2, 0.5], 0.01, DomainError, "epsilon must lie in"),
            ([0.6, 0.3], [1e-2], 0.0, ParameterError, "dt must be positive"),
            ([0.6, 0.3], [1e-2], -0.01, ParameterError, "dt must be positive"),
            ([0.6, 0.3, 0.0], [1e-2], 0.01, ParameterError, r"x0 must have shape \(2,\)"),
        ],
        ids=["epsilon_half", "zero_dt", "negative_dt", "long_x0"],
    )
    def test_callee_errors_reach_the_caller(self, x0, epsilons, dt, error, match):
        with pytest.raises(error, match=match):
            cutoff_curve(corpus_spec("lin1d_complex"), x0, epsilons, {"min": -1.0, "max": 1.0, "step": 1.0}, dt)
