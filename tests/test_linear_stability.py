import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, strategies as st
from scipy.integrate import solve_ivp

from langmix.errors import ParameterError
from langmix.linear_stability import (
    classify_linear,
    flow_zero_noise,
    k_matrix,
    lyapunov_H,
    quadratic_gronwall_bound,
    relaxation_time_T,
    t_matrix,
    total_energy,
    verify_exponential_stability,
)
from langmix.model import ModelSpec, kappa0_constant, make_linear_force, select_lambda


class TestTMatrix:
    def test_block_layout(self):
        TM = t_matrix([[1.0]], 2.0)
        assert np.array_equal(TM, [[0.0, -1.0], [1.0, 2.0]])

    def test_spectrum_relation_critical(self):
        # mu in Sp(M) iff the roots of l^2 - gamma l + mu lie in Sp(T_M);
        # gamma = 2, mu = 1 gives the double root l = 1
        TM = t_matrix([[1.0]], 2.0)
        eigs = np.sort(np.linalg.eigvals(TM))
        assert np.allclose(eigs, [1.0, 1.0])

    def test_zero_matrix(self):
        TM = t_matrix(np.zeros((2, 2)), 1.7)
        eigs = np.sort(np.linalg.eigvals(TM).real)
        assert np.allclose(eigs, [0.0, 0.0, 1.7, 1.7])

    @given(st.integers(1, 4), st.floats(0.2, 4.0))
    def test_spectrum_relation_random(self, d, gamma):
        rng = np.random.default_rng(d)
        M = rng.standard_normal((d, d))
        lam_TM = np.linalg.eigvals(t_matrix(M, gamma))
        mapped = list(lam_TM * (gamma - lam_TM))
        target = list(np.concatenate([np.linalg.eigvals(M)] * 2))
        # greedy multiset matching: stable against near-ties in sorting
        for z in mapped:
            j = int(np.argmin(np.abs(np.asarray(target) - z)))
            assert abs(target[j] - z) < 1e-7 * (1 + abs(z))
            target.pop(j)


class TestKMatrix:
    def test_rotation_form(self):
        a, b, gamma = 1.3, -2.1, 1.7
        K = k_matrix([[a, -b], [b, a]], gamma)
        assert np.allclose(K, (gamma**2 * a - b**2) * np.eye(2))

    def test_symmetric_matrix(self):
        M = np.array([[2.0, 0.3], [0.3, -1.0]])
        assert np.allclose(k_matrix(M, 2.0), 4.0 * M)

    def test_eigenvector_identity(self, rng):
        # <K_M w, w>_C = gamma^2 a - b^2 for a unit eigenvector w of M
        for _ in range(20):
            d = int(rng.integers(2, 5))
            M = rng.standard_normal((d, d))
            gamma = float(rng.uniform(0.3, 3.0))
            K = k_matrix(M, gamma)
            vals, vecs = np.linalg.eig(M)
            for i in range(d):
                w = vecs[:, i] / np.linalg.norm(vecs[:, i])
                lhs = float(np.real(np.conj(w) @ (K @ w)))
                assert lhs == pytest.approx(
                    gamma**2 * vals[i].real - vals[i].imag ** 2, abs=1e-9
                )


class TestClassifyLinear:
    def test_scalar_stable(self):
        v = classify_linear([[1.0]], 1.0)
        assert v.stable and not v.indeterminate

    def test_rotation_unstable_then_stable(self):
        M = [[1.0, -2.0], [2.0, 1.0]]
        v1 = classify_linear(M, 1.0)
        assert not v1.stable
        # direct eigen oracle: T_M has an eigenvalue with negative real part
        assert np.min(np.linalg.eigvals(t_matrix(M, 1.0)).real) < 0
        v3 = classify_linear(M, 3.0)
        assert v3.stable
        assert np.min(np.linalg.eigvals(t_matrix(M, 3.0)).real) > 0

    def test_trace_contains_all_criteria(self):
        v = classify_linear([[1.0]], 1.0)
        names = {c.name for c in v.criterion_trace}
        assert names == {
            "spectrum_in_parabola",
            "eigencheck_T_M",
            "sufficient_pd",
            "normal_equivalence",
        }

    def test_indeterminate_band(self):
        v = classify_linear([[0.0]], 1.0)  # eigenvalue exactly on the boundary
        assert v.indeterminate


class TestSelectLambda:
    def test_worked_example(self):
        # alpha=1, beta=1/2, gamma=1: the binding bound is 1/3 (second condition)
        assert select_lambda(1.0, 0.5, 1.0) == pytest.approx(0.99 / 3.0)

    def test_large_alpha_limit(self):
        gamma, beta = 2.0, 0.7
        lam = select_lambda(1e9, beta, gamma)
        assert lam == pytest.approx(0.99 * gamma * (1 - beta**2 / gamma**2))

    def test_beta_to_gamma_forces_zero(self):
        lam = select_lambda(1.0, 1.0 - 1e-9, 1.0)
        assert 0 < lam < 1e-6

    @given(
        st.floats(1e-3, 50.0),
        st.floats(0.05, 0.95),
        st.floats(0.1, 10.0),
    )
    def test_three_conditions_always_hold(self, alpha, beta_frac, gamma):
        beta = beta_frac * gamma
        lam = select_lambda(alpha, beta, gamma)
        assert 0 < lam < gamma
        assert lam * (gamma - lam) / 2 <= alpha * (1 + 1e-12)
        assert 2 * lam / (gamma - lam) <= alpha * (1 + 1e-12)
        assert beta**2 <= gamma * (gamma - lam) * (1 + 1e-12)


class TestLyapunovH:
    def _unit_gap_spec(self):
        # gamma - lam = 1 exactly: gamma=2, lam=1 is admissible for alpha=2, beta=1
        spec = ModelSpec(make_linear_force([[1.0]]), gamma=2.0, alpha=2.0, beta=1.0)
        spec.lam, spec.kappa0 = 1.0, kappa0_constant(2.0, 1.0)
        return spec

    def test_zero_at_origin(self, harmonic_spec):
        assert float(lyapunov_H(harmonic_spec, np.zeros(2))) == 0.0

    def test_worked_value(self):
        spec = self._unit_gap_spec()
        # 1/2 + 1/2 + 1/4 + 1/2 with U(q) = q^2 / 2 at x = (1, 1)
        assert float(lyapunov_H(spec, np.array([1.0, 1.0]))) == pytest.approx(1.75)

    def test_quadratic_sandwich(self, rng, harmonic_spec):
        spec = harmonic_spec
        g = spec.gamma - spec.lam
        for _ in range(200):
            x = rng.standard_normal(2) * 3
            q, p = x[:1], x[1:]
            quad = float(lyapunov_H(spec, x)) - float(spec.force.eval_U(q))
            lo = (1 / 6) * p @ p + g**2 / 16 * q @ q
            hi = 0.75 * p @ p + spec.gamma**2 / 2 * q @ q
            assert lo - 1e-12 <= quad <= hi + 1e-12

    def test_norm_equivalence_constant(self, rng, harmonic_spec):
        spec = harmonic_spec
        for _ in range(200):
            x = rng.standard_normal(2) * 5
            h = float(lyapunov_H(spec, x))
            assert x @ x <= spec.kappa0 * h * (1 + 1e-12)
            assert h <= spec.kappa0 * (x @ x) + float(spec.force.eval_U(x[:1])) + 1e-12


class TestFlow:
    def test_equilibrium_stays(self, harmonic_spec):
        path = flow_zero_noise(harmonic_spec, np.zeros(2), 2.0, 0.01)
        assert np.all(path.states == 0.0)

    def test_matches_matrix_exponential(self, harmonic_spec):
        x0 = np.array([1.0, 0.5])
        path = flow_zero_noise(harmonic_spec, x0, 1.0, 1e-3)
        TM = t_matrix([[1.0]], 1.0)
        ref = sla.expm(-TM * 1.0) @ x0
        assert np.linalg.norm(path.states[-1] - ref) < 1e-8

    def test_energy_identity_along_path(self, quartic_spec):
        # d/dt (|p|^2/2 + U(q)) = -gamma |p|^2 - <p, ell(q)> (ell = 0 here)
        dt = 1e-3
        path = flow_zero_noise(quartic_spec, np.array([0.9, -0.3]), 2.0, dt)
        e = total_energy(quartic_spec, path.states)
        p = path.states[:, 1]
        dE = np.gradient(e, dt)
        rhs = -quartic_spec.gamma * p**2
        # centered gradient is O(dt^2); compare away from the ends
        assert np.abs(dE[2:-2] - rhs[2:-2]).max() < 5e-4

    def test_matches_independent_implicit_solve(self, quartic_spec):
        x0 = np.array([0.8, 0.2])
        path = flow_zero_noise(quartic_spec, x0, 4.0, 1e-2)
        ref = solve_ivp(
            lambda t, y: [y[1], -(y[0] ** 3 + y[0]) - quartic_spec.gamma * y[1]],
            (0.0, path.grid[-1]), x0, method="Radau", t_eval=path.grid, rtol=1e-12, atol=1e-14,
        )
        assert np.abs(path.states - ref.y.T).max() <= 1e-9

    def test_grid_does_not_change_the_steps(self, quartic_spec):
        x0 = np.array([0.8, 0.2])
        ends = [flow_zero_noise(quartic_spec, x0, 1.0, dt).states[-1] for dt in (4e-3, 2e-3, 1e-3)]
        assert np.array_equal(ends[0], ends[1]) and np.array_equal(ends[1], ends[2])

    def test_one_point_grid_and_bad_arguments(self, quartic_spec):
        x0 = np.array([0.8, 0.2])
        for t_end, dt in ((0.0, 1e-3), (4e-4, 1e-3)):
            path = flow_zero_noise(quartic_spec, x0, t_end, dt)
            assert np.array_equal(path.grid, [0.0]) and np.array_equal(path.states, [x0])
        for x, t_end, dt in ((x0, 1.0, 0.0), (x0, 1.0, -1e-3), (x0, -1.0, 1e-3), (np.zeros(3), 1.0, 1e-3)):
            with pytest.raises(ParameterError):
                flow_zero_noise(quartic_spec, x, t_end, dt)


class TestStabilityCertificate:
    def test_origin_trivially_monotone(self, harmonic_spec):
        rep = verify_exponential_stability(harmonic_spec, np.zeros(2), 1.0)
        assert rep.monotone and rep.max_violation == 0.0

    def test_harmonic_certificate(self, harmonic_spec):
        rep = verify_exponential_stability(harmonic_spec, np.array([1.0, 0.0]), 10.0)
        assert rep.monotone
        assert rep.max_violation < 1e-8
        assert rep.norm_bound_holds

    def test_unstable_model_flagged(self):
        ff = make_linear_force([[1.0, -2.0], [2.0, 1.0]])
        spec = ModelSpec(ff, gamma=1.0, alpha=0.3, beta=0.9)
        rep = verify_exponential_stability(spec, np.array([1.0, 0.0, 0.0, 0.0]), 12.0)
        assert not rep.monotone or not rep.norm_bound_holds


class TestQuadraticGronwall:
    def test_fixed_point_case(self):
        # u0 = alpha keeps the solution at alpha, below the envelope
        a, b, c, M = 0.75, 2.0, 1.0, 3.0
        alpha = (b - math.sqrt(b * b - 4 * a * c)) / (2 * c)
        bound = quadratic_gronwall_bound(a, b, c, M, alpha, np.array([0.0, 1.0, 5.0]))
        assert np.all(bound >= alpha)

    def test_bernoulli_closed_form_stays_below(self):
        # u' = -u + u^2/4 with u(0)=1 solves to u(t) = 4/(3 e^t + 1)
        t = np.linspace(0.0, 6.0, 200)
        u = 4.0 / (3.0 * np.exp(t) + 1.0)
        bound = quadratic_gronwall_bound(0.0, 1.0, 0.25, 2.0, 1.0, t)
        assert np.allclose(bound, 2.0 * np.exp(-t))
        assert np.all(u <= bound + 1e-12)

    def test_threshold_rejected(self):
        with pytest.raises(ParameterError):
            quadratic_gronwall_bound(0.0, 1.0, 0.25, 2.0, 1.4, 0.0)  # threshold is 4/3

    def test_negative_discriminant_rejected(self):
        with pytest.raises(ParameterError):
            quadratic_gronwall_bound(1.0, 1.0, 1.0, 2.0, 0.1, 0.0)

    def test_blowup_above_beta(self):
        # starting above the larger root the equality dynamics explodes
        a, b, c = 0.75, 2.0, 1.0
        beta = (b + math.sqrt(b * b - 4 * a * c)) / (2 * c)
        sol = solve_ivp(
            lambda t, u: a - b * u + c * u * u,
            (0.0, 50.0),
            [beta + 0.5],
            rtol=1e-8,
            atol=1e-10,
            dense_output=False,
        )
        assert np.max(sol.y) > 1e3 or not sol.success


class TestRelaxationTime:
    def _spec(self):
        # round constants for a worked value: lam = 2 and kappa = kappa0**2 = 4
        spec = ModelSpec(make_linear_force([[1.0]]), gamma=5.0, alpha=4.0, beta=1.0)
        spec.lam, spec.kappa0 = 2.0, 2.0
        return spec

    def test_inside_ball_gives_zero(self):
        spec = self._spec()
        assert relaxation_time_T(spec, np.array([0.0, 0.0])) == 0.0

    def test_worked_value(self):
        # a linear force has delta = 1 (the cap), so kappa (|x|^2 + U) / delta^2 = 4
        # at |x|^2 + U = 1: T = log(4)/2 = log 2
        spec = self._spec()
        assert relaxation_time_T(spec, np.array([0.0, 1.0])) == pytest.approx(math.log(2.0))

    def test_monotone_in_norm(self):
        spec = self._spec()
        ts = [relaxation_time_T(spec, np.array([0.0, p])) for p in (0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b + 1e-15 for a, b in zip(ts, ts[1:]))
