import math

import numpy as np
import pytest
from scipy.integrate import quad

from langmix.covflow import drift_matrix
from langmix.cutoff import (
    jordan_chains,
    mixing_time,
    profile_D,
    profile_lambda,
    profile_lambda_alt,
    profile_limit_r,
    profile_vector,
    spectral_data,
)
from langmix.errors import DivergenceError, DomainError, StabilityError
from langmix.gaussian_tv import tv_unit
from langmix.linear_stability import flow_zero_noise, make_spec
from langmix.matrix_eq import sigma_matrix
from langmix.model import _polynomial_gradient_force


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

    def test_vectors_linearly_independent(self, harmonic_spec):
        sd = spectral_data(harmonic_spec, np.array([0.6, 0.3]))
        assert sd.m == 2  # conjugate pair
        assert np.linalg.matrix_rank(sd.vectors) == sd.m

    def test_nonlinear_start_outside_ball_gets_shift(self, quartic_spec):
        sd = spectral_data(quartic_spec, np.array([2.5, 0.0]))
        assert sd.tau > 1.0  # entry time plus one
        assert np.linalg.norm(sd.expansion_point) <= 1.0 + 1e-6


#: the fixed RK4 step the event-located search is compared with
RK4_DT = 1e-3


class TestBallEntrySearch:
    def test_force_evaluations_bounded(self, quartic_spec, monkeypatch):
        # a fixed RK4 step of 1e-3 to one time unit past the entry takes about 12,000
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
        path = flow_zero_noise(quartic_spec, x, 6.0, RK4_DT)
        inside = np.nonzero(np.linalg.norm(path.states, axis=1) <= quartic_spec.delta_nbhd)[0]
        assert abs(sd.tau - (float(path.grid[inside[0]]) + 1.0)) <= 1e-3
        # a step near 1e-4 that lands exactly on tau
        n = math.ceil(sd.tau / 1e-4)
        fine = flow_zero_noise(quartic_spec, x, sd.tau, sd.tau / n)
        assert np.abs(sd.expansion_point - fine.states[-1]).max() <= 1e-9

    def test_never_entered_ball_raises_at_the_horizon(self):
        # double well U = q^4/4 - q^2/2: from (1.5, 0) the flow settles at (1, 0)
        spec = make_spec(_polynomial_gradient_force([0, 0, -0.5, 0, 0.25]), 1.5, alpha=2 / 3, beta=0.75)
        spec.delta_nbhd = 0.5
        with pytest.raises(StabilityError, match="never entered"):
            spectral_data(spec, np.array([1.5, 0.0]))

    def test_divergence_reports_the_time_since_the_start(self):
        # inverted quartic U = q^2/2 - q^4/4: past the barrier at q = 1 the
        # path blows up after t = 2.5
        spec = make_spec(_polynomial_gradient_force([0, 0, 0.5, 0, -0.25]), 1.5, alpha=2 / 3, beta=0.75)
        x = np.array([1.2, 0.0])
        with pytest.raises(DivergenceError) as whole:
            flow_zero_noise(spec, x, 10.0, RK4_DT)
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
