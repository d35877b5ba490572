import dataclasses
import hashlib
import itertools
import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from langmix import cli, simulate
from langmix.covflow import drift_matrix, integrate_covariance, noise_matrix
from langmix.errors import MethodError, ParameterError
from langmix.gaussian_tv import Gaussian, tv_gaussian, tv_unit
from langmix.harness import corpus_model_config, corpus_spec
from langmix.linear_stability import BLOWUP, flow_zero_noise
from langmix.matrix_eq import lyapunov_quadrature, sigma_matrix
from langmix.model import ModelSpec, force_from_config, make_gradient_force, make_linear_force
from langmix.simulate import (
    BLOCK,
    empirical_tv,
    exp_moment_bound,
    integrate_fluctuation,
    integrate_sde,
    integrate_sde_runs,
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
        cov_ref = 2 * eps * lyapunov_quadrature(A, noise_matrix(1), 1.0, n_intervals=2000)
        cloud = b.states[:, -1, :]
        se_mean = np.sqrt(np.diag(cov_ref) / n)
        assert np.all(np.abs(cloud.mean(axis=0) - mean_ref) < 3 * se_mean)
        emp = np.cov(cloud, rowvar=False)
        se_cov = np.sqrt((np.outer(np.diag(cov_ref), np.diag(cov_ref)) + cov_ref**2) / n)
        assert np.all(np.abs(emp - cov_ref) < 4 * se_cov)

    @pytest.mark.slow
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
            (integrate_sde, dict(epsilon=0.02, scheme="euler_maruyama", couple_fluctuation=True)),
            (integrate_fluctuation, {}),
        ],
        ids=["sde_baoab", "sde_em", "coupled", "fluctuation_exact"],
    )
    def test_path_count_invariance_of_streams(self, run, kw):
        # the leading paths are identical whether one path runs, a few, or
        # enough to cross into a second noise block, with a single path
        # there: a one-row matmul rounds differently from a many-row one.
        # skew is a linear force whose own products round.
        skew = ModelSpec(make_linear_force([[1.1, -2.3], [2.3, 0.7]]), 3.0, 0.25, 2.6)
        kw = dict(kw, t_end=0.5, dt=0.01, seed=5, store_every=25)
        for spec in (corpus_spec("lin1d_complex"), corpus_spec("lin2d_rot"), skew):
            x0 = np.full(2 * spec.dim, 0.3)
            big = run(spec, x0, n_paths=BLOCK + 100, **kw)
            for n in (1, 2, 100, BLOCK + 1):
                small = run(spec, x0, n_paths=n, **kw)
                assert np.array_equal(small.states, big.states[:n]), n
                if kw.get("couple_fluctuation"):
                    assert np.array_equal(small.coupled["Y"], big.coupled["Y"][:n]), n
                    assert np.array_equal(small.coupled["Z"], big.coupled["Z"][:n]), n

    def test_coupling_identity_and_restrictions(self):
        eps = 0.01
        for model, x0 in (("lin1d_complex", (0.4, 0.1)), ("quartic", (0.8, -0.2))):
            spec = corpus_spec(model)
            b = integrate_sde(spec, x0, 1.0, 0.005, 300, seed=4, epsilon=eps, scheme="euler_maruyama",
                              store_every=50, couple_fluctuation=True)
            recon = b.coupled["ode"][None, :, :] + math.sqrt(2 * eps) * b.coupled["Y"]
            assert np.abs(b.coupled["Z"] - recon).max() == 0.0
            # the coupled Y is the Euler-Maruyama fluctuation on X's normals
            assert np.array_equal(b.coupled["Y"], _em_fluctuation(spec, x0, 1.0, 0.005, 300, seed=4)[:, ::50])
        with pytest.raises(ParameterError):
            integrate_sde(spec, np.zeros(2), 1.0, 0.005, 10, seed=4, epsilon=eps, scheme="baoab",
                          couple_fluctuation=True)

    def test_coupled_run_excludes_the_paths_of_its_x(self, monkeypatch):
        # the inverted quartic's Euler-Maruyama ensemble excludes 83 of 200
        # paths; Y and Z drop the same rows as X
        spec, x0 = _inverted_quartic()
        eps, kw = 0.3, dict(seed=1, scheme="euler_maruyama", store_every=600)
        masks, run = [], simulate._run_ensemble

        def recording_run(*args, **kwargs):
            masks.append(run(*args, **kwargs))
            return masks[-1]

        monkeypatch.setattr(simulate, "_run_ensemble", recording_run)
        b = integrate_sde(spec, x0, 6.0, 0.01, 200, epsilon=eps, couple_fluctuation=True, **kw)
        plain = integrate_sde(spec, x0, 6.0, 0.01, 200, epsilon=eps, **kw)
        alive = masks[0]
        assert np.array_equal(alive, masks[1]) and b.excluded == plain.excluded == int(np.sum(~alive)) == 83
        assert np.array_equal(b.states, plain.states)
        y, z = b.coupled["Y"], b.coupled["Z"]
        assert np.array_equal(y, _em_fluctuation(spec, x0, 6.0, 0.01, 200, seed=1)[alive][:, ::600])
        assert z.shape == y.shape == (117, 2, 2)
        assert np.array_equal(z, b.coupled["ode"][None, :, :] + math.sqrt(2 * eps) * y)

    def test_explosion_excluded_and_counted(self):
        # inverted potential: F(q) = -q pushes mass away; far starts explode
        bad = ModelSpec(make_linear_force([[-1.0]]), 1.0, 2 / 3, 0.5)
        b = integrate_sde(bad, np.array([1.0, 1.0]), 60.0, 0.5, 8, seed=1, epsilon=200.0,
                          store_every=60, scheme="euler_maruyama")
        assert b.excluded > 0
        assert b.states.shape[0] == 8 - b.excluded
        assert np.all(np.isfinite(b.states))


@pytest.mark.parametrize(
    "norms, kept",
    [
        ([0.1, 0.2, 0.05], [True, True, True]),
        ([0.8, 0.0, 0.0], [True, True, True]),  # between BLOWUP / sqrt 2 and BLOWUP: kept
        ([0.6, 0.6, 0.0], [True, True, True]),  # rows' sum over BLOWUP^2 / 2, each row below BLOWUP
        ([1.2, 0.3, 0.0], [False, True, True]),  # beyond BLOWUP: excluded
        ([np.inf, 0.0, np.nan], [False, True, False]),
        ([0.5, 0.5, 0.5], [True, True, True]),  # each row a quarter of BLOWUP^2, their sum over half
        ([np.nan, 0.1, 0.2], [False, True, True]),  # NaN fails the sum test and its row's
    ],
)
def test_guard_excludes_exactly_the_rows_beyond_blowup(norms, kept):
    scale = np.array(norms) * BLOWUP

    def step(k, s, xi):
        q, p = s
        q[:, 0] = scale * 0.6
        p[:, 0] = scale * 0.8
        return q, p

    start = lambda owner: ((np.zeros((len(owner), 1)), np.zeros((len(owner), 1))), step)
    alive = simulate._run_ensemble([(len(norms), 0, 2, [0], (None, None))], 1, start, guard=True)
    assert alive.tolist() == kept


def _inverted_quartic():
    """The inverted quartic U = q^2/2 - q^4/4 and a start inside its well, (0.9, 0)."""
    force = force_from_config({"type": "polynomial_gradient", "coeffs": [0.0, 0.0, 0.5, 0.0, -0.25]})
    return ModelSpec(force, 1.5, 2 / 3, 0.75), np.array([0.9, 0.0])


def _step_normals(seed, b, k, m, width):
    """The (m, width) normals of noise block b at step k: Philox keyed by (seed, b), from counter (0, k, 0, 0)."""
    key = np.array([seed, b], dtype=np.uint64)
    counter = np.array([0, k, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter)).standard_normal((m, width))


def _em_fluctuation(spec, x0, t_end, dt, n, seed):
    """Y at every step of y <- y + dt y A(q_k)^T + sqrt(dt) [0, xi_k] along the zero-noise path.

    xi_k is noise block 0's draw at step k, the normals that step X in a
    coupled run of n <= BLOCK paths.
    """
    d = spec.dim
    y = np.zeros((n, 2 * d))
    path = [y]
    for k, q in enumerate(flow_zero_noise(spec, x0, t_end, dt).states[:-1, :d], 1):
        xi = _step_normals(seed, 0, k, n, d)
        y = y + (dt * (y @ drift_matrix(spec, q).T) + np.hstack([np.zeros((n, d)), math.sqrt(dt) * xi]))
        path.append(y)
    return np.stack(path, axis=1)


def _per_block_ensemble(runs, width, start, guard=False):
    """The per-block loop that the batched _run_ensemble replaced, kept as its oracle.

    Each block of BLOCK paths of each run, in run order, takes all its
    run's steps before the next block starts, draws its rows of step k
    afresh from counter (0, k, 0, 0), guards with the finiteness chain the
    single comparison replaced, and zeroes only q and p of the paths it
    excludes.
    """
    alive = np.ones(sum(run[0] for run in runs), dtype=bool)
    first = 0
    for j, (n_paths, seed, n_steps, store_idx, outs) in enumerate(runs):
        for b in range((n_paths + BLOCK - 1) // BLOCK):
            lo, hi = b * BLOCK, min((b + 1) * BLOCK, n_paths)
            m = hi - lo
            state, step = start(np.full(m, j))
            for out, a in zip(outs, state):
                if out is not None:
                    out[lo:hi, 0] = a
            si = 1
            for k in range(1, n_steps + 1):
                state = step(k, state, _step_normals(seed, b, k, m, width))
                if guard:
                    q, p = state[0], state[1]
                    with np.errstate(over="ignore", invalid="ignore"):
                        bad = ~(
                            np.all(np.isfinite(q), axis=1)
                            & np.all(np.isfinite(p), axis=1)
                            & (np.sum(q * q, axis=1) + np.sum(p * p, axis=1) < BLOWUP**2)
                        )
                    if np.any(bad):
                        alive[first + lo : first + hi] &= ~bad
                        q[bad] = 0.0
                        p[bad] = 0.0
                if si < len(store_idx) and k == store_idx[si]:
                    for out, a in zip(outs, state):
                        if out is not None:
                            out[lo:hi, si] = a
                    si += 1
        first += n_paths
    return alive


def _outputs(result):
    if isinstance(result, float):
        return [result]
    coupled = result.coupled or {}
    return [result.states, result.excluded] + [coupled[key] for key in sorted(coupled)]


def _recording_force(spec, record):
    """spec with eval_F wrapped to call record(q) first."""
    F = spec.force.eval_F

    def eval_F(q):
        record(q)
        return F(q)

    return dataclasses.replace(spec, force=dataclasses.replace(spec.force, eval_F=eval_F))


def _counting_force(spec):
    """spec with eval_F wrapped to record the shape of every argument."""
    shapes = []
    return _recording_force(spec, lambda q: shapes.append(np.shape(q))), shapes


def _quartic_F(q):
    # the quartic force q^3 + q as np.polyval computes it
    return np.polyval([1.0, 0.0, 1.0, 0.0], q)


def _two_force_path(spec, x0, scheme, eps, dt, n, n_steps, seed):
    """(q, p) after each step of the textbook out-of-place quartic step, one noise block."""
    g = spec.gamma
    h, c_ou = 0.5 * dt, math.exp(-g * dt)
    sig_ou = math.sqrt(eps / g * (1.0 - c_ou**2))
    q, p = np.full((n, 1), x0[0]), np.full((n, 1), x0[1])
    for k in range(1, n_steps + 1):
        xi = _step_normals(seed, 0, k, n, 1)
        if scheme == "baoab":
            p = p - h * _quartic_F(q)
            q = q + h * p
            p = c_ou * p + sig_ou * xi
            q = q + h * p
            p = p - h * _quartic_F(q)
        else:
            dp = dt * (-_quartic_F(q) - g * p) + math.sqrt(2.0 * eps * dt) * xi
            q, p = q + dt * p, p + dp
        yield q, p


_KERNEL_RUNS = {
    "sde_baoab": lambda spec, x0, n: integrate_sde(
        spec, x0, 0.2, 0.01, n, seed=3, epsilon=0.05, scheme="baoab", store_every=5
    ),
    "sde_em": lambda spec, x0, n: integrate_sde(
        spec, x0, 0.2, 0.01, n, seed=3, epsilon=0.05, scheme="euler_maruyama", store_every=5
    ),
    "coupled": lambda spec, x0, n: integrate_sde(
        spec, x0, 0.2, 0.01, n, seed=3, epsilon=0.05, scheme="euler_maruyama", store_every=5,
        couple_fluctuation=True,
    ),
    "fluctuation_exact": lambda spec, x0, n: integrate_fluctuation(
        spec, x0, 0.2, 0.01, n, seed=3, store_every=5
    ),
    "pinsker": lambda spec, x0, n: pinsker_kl_bound(spec, x0, 0.2, 0.01, n, seed=3, epsilon=0.05),
}


class TestBatchedKernel:
    @pytest.mark.parametrize("kind", sorted(_KERNEL_RUNS))
    def test_matches_per_block_oracle(self, monkeypatch, kind):
        run = _KERNEL_RUNS[kind]
        for model in ("lin1d_complex", "quartic", "lin2d_rot"):
            spec = corpus_spec(model)
            x0 = np.full(2 * spec.dim, 0.4)
            for n in (300, BLOCK + 7, 2 * BLOCK + 300):
                batched = _outputs(run(spec, x0, n))
                with monkeypatch.context() as m:
                    m.setattr(simulate, "_run_ensemble", _per_block_ensemble)
                    oracle = _outputs(run(spec, x0, n))
                assert len(batched) == len(oracle)
                for a, b in zip(batched, oracle):
                    assert np.array_equal(a, b), (model, n)

    @pytest.mark.parametrize(
        "scheme, expected", [("baoab", {8: 8, 4100: 4100}), ("euler_maruyama", {8: 8, 4100: 4095})]
    )
    def test_exploding_paths_match_per_block_oracle(self, monkeypatch, scheme, expected):
        # inverted potential F(q) = -q: the guard zeroes and excludes the
        # same paths as the per-block loop with its finiteness chain
        bad = ModelSpec(make_linear_force([[-1.0]]), 1.0, 2 / 3, 0.5)
        for n, excluded in expected.items():
            kw = dict(seed=1, epsilon=200.0, store_every=60, scheme=scheme)
            batched = integrate_sde(bad, np.array([1.0, 1.0]), 60.0, 0.5, n, **kw)
            with monkeypatch.context() as m:
                m.setattr(simulate, "_run_ensemble", _per_block_ensemble)
                oracle = integrate_sde(bad, np.array([1.0, 1.0]), 60.0, 0.5, n, **kw)
            assert batched.excluded == oracle.excluded == excluded
            assert np.array_equal(batched.states, oracle.states)

    @pytest.mark.parametrize("scheme", ["baoab", "euler_maruyama"])
    def test_matches_the_two_force_step(self, quartic_spec, scheme):
        # carrying the closing force and updating in place give the values
        # of the out-of-place step that evaluates F afresh
        x0 = np.array([0.8, -0.2])
        *_, (q, p) = _two_force_path(quartic_spec, x0, scheme, 0.05, 0.01, 300, 50, seed=4)
        b = integrate_sde(quartic_spec, x0, 0.5, 0.01, 300, seed=4, epsilon=0.05, scheme=scheme,
                          store_every=50)
        assert np.array_equal(b.states[:, -1], np.hstack([q, p]))

    def test_pinsker_matches_the_two_force_integrand(self, quartic_spec):
        # the integrand reads the force the step carries instead of calling F again
        x0, eps, dt, n = np.array([0.8, 0.2]), 1e-3, 0.01, 300
        q_det = flow_zero_noise(quartic_spec, x0, 0.5, dt).states[:, :1]
        f_det = _quartic_F(q_det)
        DF_det = quartic_spec.force.eval_DF(q_det)

        def integrand(k, q):
            lin = f_det[k] + np.einsum("ij,nj->ni", DF_det[k], q - q_det[k])
            rem = _quartic_F(q) - lin
            return np.sum(rem * rem, axis=1)

        path = _two_force_path(quartic_spec, x0, "euler_maruyama", eps, dt, n, 50, seed=5)
        acc, prev = np.zeros(n), integrand(0, np.full((n, 1), x0[0]))
        for k, (q, _) in enumerate(path, 1):
            cur = integrand(k, q)
            acc, prev = acc + 0.5 * dt * (prev + cur), cur
        expected = float(np.sum(acc)) / n / (2.0 * eps)
        assert pinsker_kl_bound(quartic_spec, x0, 0.5, dt, n, seed=5, epsilon=eps) == expected

    @pytest.mark.parametrize("scheme", ["baoab", "euler_maruyama"])
    def test_force_may_return_its_argument(self, scheme):
        # the in-place updates of q must not corrupt a force that aliases it
        aliased = make_gradient_force(
            1,
            U=lambda q: 0.5 * np.sum(np.asarray(q) ** 2, axis=-1),
            gradU=lambda q: np.asarray(q, dtype=float),
            hessU=lambda q: np.ones(np.shape(q) + (1,)),
        )
        kw = dict(seed=2, epsilon=0.05, scheme=scheme, store_every=10)
        runs = [
            integrate_sde(ModelSpec(force, 1.0, 0.5, 0.5), np.array([0.7, 0.1]), 0.5, 0.01, 300, **kw)
            for force in (aliased, make_linear_force([[1.0]]))
        ]
        assert np.array_equal(runs[0].states, runs[1].states)

    @pytest.mark.parametrize("scheme", ["baoab", "euler_maruyama"])
    def test_one_force_call_per_step(self, quartic_spec, scheme):
        spec, shapes = _counting_force(quartic_spec)
        integrate_sde(spec, np.array([0.8, 0.0]), 0.5, 0.01, 300, seed=1, epsilon=0.05, scheme=scheme,
                      store_every=50)
        assert len(shapes) == 50 + 1

    def test_pinsker_reuses_the_step_force(self, quartic_spec):
        # the integrand reads the force the step carries; only calls on the
        # 300-row ensemble count, not those along the zero-noise path
        spec, shapes = _counting_force(quartic_spec)
        pinsker_kl_bound(spec, np.array([0.8, 0.2]), 0.5, 0.01, 300, seed=5, epsilon=1e-3)
        assert sum(s[0] == 300 for s in shapes if len(s) == 2) == 50 + 1


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
        # the coupled run's Euler-Maruyama Y against the exact step
        x0 = np.array([0.8, 0.0])
        kw = dict(t_end=2.0, dt=0.005, n_paths=20000, seed=3, store_every=400)
        a = integrate_fluctuation(quartic_spec, x0, **kw)
        e = integrate_sde(quartic_spec, x0, epsilon=0.01, scheme="euler_maruyama", couple_fluctuation=True, **kw)
        ca = np.cov(a.states[:, -1, :], rowvar=False)
        ce = np.cov(e.coupled["Y"][:, -1, :], rowvar=False)
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

    def test_degenerate_equal_clouds_fall_back_to_knn(self, rng):
        # both fitted covariances are diag(v, 0): the moment-matched TV cannot
        # whiten them, and the knn classifier takes over
        cloud = np.column_stack([rng.standard_normal(400), np.zeros(400)])
        with pytest.warns(UserWarning, match="degenerate sample covariance"):
            est = empirical_tv(cloud, cloud.copy(), method="gaussian_momentmatch")
        assert est.method == "classifier_knn"

    def test_known_separation(self, rng):
        # unit Gaussians two apart have TV = tv_unit(2) ~ 0.6827
        a = rng.standard_normal((20000, 2))
        b = rng.standard_normal((20000, 2)) + np.array([2.0, 0.0])
        target = tv_unit(np.array([2.0]))
        est = empirical_tv(a, b, method="gaussian_momentmatch")
        assert abs(est.estimate - target) < max(3 * est.stderr, 0.01)

    def test_momentmatch_in_4d_is_quadrature_not_monte_carlo(self, rng):
        # only the bootstrap stderr draws random numbers; the estimate is the
        # exact TV between the two fitted Gaussians
        a = rng.standard_normal((4000, 4))
        b = rng.standard_normal((4000, 4)) + np.array([1.0, 0.0, 0.5, 0.0])
        one = empirical_tv(a, b, method="gaussian_momentmatch", seed=1)
        two = empirical_tv(a, b, method="gaussian_momentmatch", seed=2)
        assert one.estimate == two.estimate
        fits = [Gaussian(c.mean(axis=0), np.cov(c, rowvar=False)) for c in (a, b)]
        assert one.estimate == tv_gaussian(*fits, method="cdf_quadrature").value

    def test_monotone_in_offset(self, rng):
        a = rng.standard_normal((8000, 1))
        prev = -1.0
        for off in (0.5, 1.0, 2.0, 3.0):
            b = rng.standard_normal((8000, 1)) + off
            est = empirical_tv(a, b, method="classifier_knn").estimate
            assert est > prev - 0.02
            prev = est

    @pytest.mark.parametrize("method", ["gaussian_momentmatch", "classifier_knn"])
    def test_a_1d_array_is_points_on_the_line(self, rng, method):
        a, b = rng.standard_normal(400), rng.standard_normal(400) + 1.0
        flat = empirical_tv(a, b, method=method, seed=4)
        column = empirical_tv(a[:, None], b[:, None], method=method, seed=4)
        assert (flat.estimate, flat.stderr) == (column.estimate, column.stderr)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ParameterError):
            empirical_tv(rng.standard_normal((10, 1)), rng.standard_normal((10, 2)))

    @pytest.mark.parametrize("n", [4, 5])
    def test_knn_refuses_clouds_too_small_to_train(self, rng, n):
        # half of each cloud trains the classifier, which needs 5 neighbours
        with pytest.raises(ParameterError, match="6 points per cloud"):
            empirical_tv(rng.standard_normal((n, 2)), rng.standard_normal((n, 2)), method="classifier_knn")

    @pytest.mark.parametrize("method", ["gaussian_momentmatch", "classifier_knn"])
    @pytest.mark.parametrize("n1, n2", [(3, 10), (10, 3)])
    def test_refuses_clouds_of_fewer_than_4_points(self, rng, method, n1, n2):
        with pytest.raises(ParameterError, match="at least 4 points per cloud"):
            empirical_tv(rng.standard_normal((n1, 2)), rng.standard_normal((n2, 2)), method=method)

    def test_unknown_method_is_refused(self, rng):
        with pytest.raises(MethodError, match="unknown method 'energy_distance'"):
            empirical_tv(rng.standard_normal((10, 2)), rng.standard_normal((10, 2)), method="energy_distance")

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

    def test_exploding_paths_give_an_infinite_bound(self, caplog):
        # integrate_sde's Euler-Maruyama ensemble excludes 83 of these 200
        # paths; the bound is then vacuous
        spec, x0 = _inverted_quartic()
        kw = dict(seed=1, epsilon=0.3)
        b = integrate_sde(spec, x0, 6.0, 0.01, 200, scheme="euler_maruyama", store_every=600, **kw)
        assert b.excluded == 83
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert pinsker_kl_bound(spec, x0, 6.0, 0.01, 200, **kw) == math.inf
        assert "excluded 83 exploded paths out of 200" in caplog.text


_BAD_RUN_ARGS = {
    "no_paths": dict(n_paths=0),
    "zero_dt": dict(dt=0.0),
    "negative_dt": dict(dt=-0.01),
    "negative_t_end": dict(t_end=-1.0),
    "short_x0": dict(x0=np.zeros(1)),
    "zero_store_every": dict(store_every=0),
    "negative_seed": dict(seed=-1),
    "fractional_seed": dict(seed=2.5),
    "string_seed": dict(seed="3"),
    "bool_seed": dict(seed=True),
}


@pytest.mark.parametrize("simulator", [integrate_sde, integrate_fluctuation])
@pytest.mark.parametrize("bad", sorted(_BAD_RUN_ARGS))
def test_simulators_share_one_argument_check(harmonic_spec, simulator, bad):
    kw = dict(x0=np.array([0.5, 0.0]), t_end=0.1, dt=0.01, n_paths=4, seed=0, store_every=1)
    if simulator is integrate_sde:
        kw["epsilon"] = 0.1
    with pytest.raises(ParameterError):
        simulator(harmonic_spec, **dict(kw, **_BAD_RUN_ARGS[bad]))


@pytest.mark.parametrize(
    "bad", ["no_paths", "zero_dt", "negative_t_end", "short_x0", "negative_seed", "fractional_seed", "string_seed",
            "bool_seed"],
)
def test_pinsker_takes_the_same_argument_check(harmonic_spec, bad):
    kw = dict(x0=np.array([0.5, 0.0]), t_end=0.1, dt=0.01, n_paths=4, seed=0, epsilon=0.1)
    with pytest.raises(ParameterError):
        pinsker_kl_bound(harmonic_spec, **dict(kw, **_BAD_RUN_ARGS[bad]))


@pytest.mark.parametrize(
    "store_indices, message",
    [([2.7, 5.9], "integer steps"), (np.array([2.0, 5.0]), "integer steps"), ([[2, 5]], "integer steps"),
     ([11], r"lie in \[0, n_steps\]"), ([-1, 4], r"lie in \[0, n_steps\]")],
    ids=["fractional", "float_array", "nested", "beyond_the_last_step", "negative"],
)
def test_store_indices_must_be_integer_steps_on_the_grid(harmonic_spec, store_indices, message):
    # 10 steps of 0.1: a fractional index used to be truncated to the step below
    with pytest.raises(ParameterError, match=message):
        integrate_sde(harmonic_spec, (0.5, 0.0), 1.0, 0.1, 4, seed=0, epsilon=0.1, store_indices=store_indices)


def test_store_indices_of_any_integer_type_store_those_steps(harmonic_spec):
    runs = [integrate_sde(harmonic_spec, (0.5, 0.0), 1.0, 0.1, 4, seed=0, epsilon=0.1, store_indices=idx)
            for idx in ([5, 2], np.array([2, 5], dtype=np.int32), np.array([5, 2, 2], dtype=np.uint8))]
    for batch in runs:
        assert np.allclose(batch.grid, [0.0, 0.2, 0.5])
        assert np.array_equal(batch.states, runs[0].states)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3)], ids=["int64", "uint64"])
def test_numpy_integer_seeds_key_the_same_streams(seed):
    run = lambda seed: integrate_sde(corpus_spec("lin1d_complex"), (0.5, 0.0), 0.5, 0.01, 64, seed=seed,
                                     epsilon=0.05).states
    assert np.array_equal(run(seed), run(3))


def test_seeds_from_two_to_the_63_keep_their_own_streams():
    # a Philox key given as a list goes through float64 from 2^63 on: these two
    # seeds then shared one stream, with a cast warning
    run = lambda seed: integrate_sde(corpus_spec("lin1d_complex"), (0.5, 0.0), 0.5, 0.01, 64, seed=seed,
                                     epsilon=0.05).states
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.array_equal(run(2**63), run(2**63 + 1))


def test_cli_simulate_rejects_store_every_zero(tmp_path, capsys):
    config = tmp_path / "model.json"
    config.write_text(json.dumps({"schema_version": 1, "seed": 0, "model": corpus_model_config("quartic")}))
    argv = ["simulate", "--model", str(config), "--epsilon", "0.1", "--paths", "4", "--seed", "1",
            "--t-end", "0.1", "--store-every", "0", "--out", str(tmp_path / "paths.csv")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("langmix simulate: error: need dt > 0")
    assert not (tmp_path / "paths.csv").exists()


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _inverted_spec():
    # F(q) = -q: paths from the origin blow up at random times
    return ModelSpec(make_linear_force([[-1.0]]), 1.0, 2 / 3, 0.5)


#: name -> (run, sha256 of states, excluded), recorded with the per-block
#: oracle _per_block_ensemble on the (seed, block, step) streams (x86-64,
#: numpy 2.4 with OpenBLAS; a build whose matmul rounds differently would
#: need its own record)
_KERNEL_HASHES = {
    "baoab_quartic": (
        lambda: integrate_sde(corpus_spec("quartic"), np.array([0.8, -0.2]), 1.0, 0.01, 300, seed=11,
                              epsilon=0.1, scheme="baoab", store_every=10),
        "7be82374bb97feecff71fa0cf061be04264cea8b719cb3a03b3afe2a36d36870", 0,
    ),
    "em_coupled_lin1d_complex": (
        lambda: integrate_sde(corpus_spec("lin1d_complex"), np.array([0.6, 0.3]), 1.0, 0.01, 300, seed=12,
                              epsilon=0.01, scheme="euler_maruyama", store_every=10, couple_fluctuation=True),
        "726c3757cd696594949c92604006989b84fc42cf9bc9e239f0c7bd5bf07e788a", 0,
    ),
    "lin2d_rot_1_path": (
        lambda: integrate_sde(corpus_spec("lin2d_rot"), np.array([0.5, 0.5, 0.0, 0.0]), 1.0, 0.01, 1, seed=13,
                              epsilon=0.01, scheme="baoab", store_every=10),
        "a44fcfdf89eb746a81029980ed9f4a68cad1aa65b887bb33f1bfd06472723ae1", 0,
    ),
    "lin2d_rot_partial_block": (
        lambda: integrate_sde(corpus_spec("lin2d_rot"), np.array([0.5, 0.5, 0.0, 0.0]), 1.0, 0.01, BLOCK + 1,
                              seed=13, epsilon=0.01, scheme="baoab", store_every=10),
        "b6ef3187a9d2fea2247232a16415f1a38d9b880ab5f26892edcda975b3b48369", 0,
    ),
    "exploding_baoab": (
        lambda: integrate_sde(_inverted_spec(), np.zeros(2), 46.0, 0.5, 300, seed=1, epsilon=1.0,
                              scheme="baoab", store_every=4),
        "74851677c63f02ff486bcbe9bf04a66cfeb28faa47ce6a1137005ed46ce03a09", 155,
    ),
    "exploding_em": (
        lambda: integrate_sde(_inverted_spec(), np.zeros(2), 52.0, 0.5, 300, seed=1, epsilon=1.0,
                              scheme="euler_maruyama", store_every=4),
        "a4b9c5478b10e745638747ebed7a3e19e79bf902901ee5be2f532827e99ec743", 87,
    ),
}


@pytest.mark.parametrize("name", sorted(_KERNEL_HASHES))
def test_in_place_kernel_keeps_the_recorded_paths(name):
    # the step and the guard write into preallocated buffers; the paths,
    # and the paths the guard zeroes and excludes, stay the same bit for bit
    run, digest, excluded = _KERNEL_HASHES[name]
    batch = run()
    assert batch.excluded == excluded
    assert _sha256(batch.states) == digest


class _RecordingRng:
    """A block's generator that records the shape of each of its draws under its block index."""

    def __init__(self, rng, b, draws):
        self.bit_generator, self._rng, self._b, self._draws = rng.bit_generator, rng, b, draws

    def standard_normal(self, out):
        self._draws.append((self._b, out.shape))
        return self._rng.standard_normal(out=out)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("n", [1, 300, BLOCK + 5])
def test_step_k_sees_each_blocks_rows_drawn_from_counter_k(monkeypatch, n, width):
    # block b gives step k the first rows of the Philox stream keyed by
    # (seed, b) from counter (0, k, 0, 0), and draws only the rows it runs:
    # its m paths, or the two rows of a one-path ensemble, never a whole BLOCK
    seed, n_steps, rows = 9, 4, max(n, 2)
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 1)
    draws, block_rng = [], simulate._block_rng
    monkeypatch.setattr(simulate, "_block_rng", lambda seed, b: _RecordingRng(block_rng(seed, b), b, draws))
    seen = []

    def step(k, s, xi):
        seen.append((k, xi.copy()))
        return s

    simulate._run_ensemble([(n, seed, n_steps, [0], (None,))], width,
                           lambda owner: ((np.zeros((len(owner), width)),), step))
    blocks = [(b, min(BLOCK, rows - b * BLOCK)) for b in range((rows + BLOCK - 1) // BLOCK)]
    assert draws == [(b, (m, width)) for _ in range(n_steps) for b, m in blocks]
    assert [k for k, _ in seen] == list(range(1, n_steps + 1))
    for k, xi in seen:
        assert xi.shape == (rows, width)
        expected = np.vstack([_step_normals(seed, b, k, m, width) for b, m in blocks])
        assert np.array_equal(xi, expected), k
    # a draw of m rows is the head of a full block's draw from the same counter
    m = blocks[-1][1]
    assert np.array_equal(_step_normals(seed, 0, 1, m, width), _step_normals(seed, 0, 1, BLOCK, width)[:m])


@pytest.mark.parametrize(
    "n, cores, ranges",
    [
        (BLOCK + 1, 2, [(0, BLOCK + 1)]),
        (2 * BLOCK + 1, 2, [(0, BLOCK), (BLOCK, 2 * BLOCK + 1)]),
        (2 * BLOCK + 1, 3, [(0, BLOCK), (BLOCK, 2 * BLOCK + 1)]),
        (3 * BLOCK + 5, 2, [(0, 2 * BLOCK), (2 * BLOCK, 3 * BLOCK + 5)]),
        (3 * BLOCK + 5, 3, [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 3 * BLOCK + 5)]),
        (3 * BLOCK, 2, [(0, BLOCK), (BLOCK, 3 * BLOCK)]),  # a tie: the lower of two nearest edges
        (300, 2, [(0, 300)]),
        (1, 1, [(0, 1)]),
    ],
)
def test_block_ranges_are_contiguous_whole_blocks_of_two_rows_or_more(n, cores, ranges):
    assert simulate._block_ranges([n], cores) == ranges


@pytest.mark.parametrize("kind", sorted(_KERNEL_RUNS))
def test_splitting_the_blocks_over_threads_keeps_every_path(monkeypatch, kind):
    # every core count gives the same paths, exclusions and coupled arrays,
    # bit for bit, with a 1-row tail block and with a 5-row one
    # (three threads on fewer cores, switching often: a lost or crossed
    # update between ranges would show as a differing array)
    run = _KERNEL_RUNS[kind]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for model in ("quartic", "lin2d_rot"):
            spec = corpus_spec(model)
            x0 = np.full(2 * spec.dim, 0.4)
            for n in (2 * BLOCK + 1, 3 * BLOCK + 5):
                results = []
                for cores in (1, 2, 3):
                    monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
                    results.append(_outputs(run(spec, x0, n)))
                for other in results[1:]:
                    assert len(other) == len(results[0])
                    for a, b in zip(results[0], other):
                        assert np.array_equal(a, b), (model, n)
    finally:
        sys.setswitchinterval(interval)


def test_each_range_steps_in_a_thread_of_its_own_under_the_callers_errstate(harmonic_spec, monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 3)
    calls = []
    # a finished thread's ident may be given to the next one; its thread-local tag is not
    tags, numbers = threading.local(), itertools.count()

    def thread_tag():
        if not hasattr(tags, "n"):
            tags.n = next(numbers)
        return tags.n

    spec = _recording_force(harmonic_spec, lambda q: calls.append((thread_tag(), np.geterr()["under"])))
    before = threading.active_count()
    with np.errstate(under="raise"):
        integrate_sde(spec, np.array([0.5, 0.0]), 0.05, 0.01, 3 * BLOCK + 5, seed=1, epsilon=0.05)
    assert threading.active_count() == before
    # three ranges, each stepped in its own thread, the first in the calling one
    threads = {tag for tag, _ in calls}
    assert len(threads) == 3 and thread_tag() in threads
    assert {under for _, under in calls} == {"raise"}


@pytest.mark.parametrize("n, cores", [(300, 1), (2 * BLOCK + 1, 2)])
def test_overflow_raises_under_the_callers_errstate(harmonic_spec, monkeypatch, n, cores):
    # F(q) = (1e200 q)^2 overflows at the first step, in every range
    monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
    spec = dataclasses.replace(harmonic_spec, force=dataclasses.replace(harmonic_spec.force,
                                                                         eval_F=lambda q: np.square(1e200 * q)))
    before = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        integrate_sde(spec, np.zeros(2), 1.0, 0.1, n, seed=1, epsilon=1.0)
    assert threading.active_count() == before


def test_an_error_in_another_threads_range_reaches_the_caller(harmonic_spec, monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 2)
    main = threading.get_ident()

    def fail_off_the_calling_thread(q):
        if threading.get_ident() != main:
            raise ValueError(f"force failed on {len(q)} rows")

    spec = _recording_force(harmonic_spec, fail_off_the_calling_thread)
    before = threading.active_count()
    with pytest.raises(ValueError, match=f"force failed on {BLOCK + 1} rows"):
        integrate_sde(spec, np.array([0.5, 0.0]), 1.0, 0.01, 2 * BLOCK + 1, seed=1, epsilon=0.05)
    assert threading.active_count() == before


def _mixed_runs(spec):
    """Three (x0, epsilon, seed, store_indices) runs of different starts, noise levels, seeds and lengths."""
    n = 2 * spec.dim
    return [
        (np.full(n, 0.4), 0.05, 3, [7, 2, 30]),
        (np.linspace(-0.5, 0.5, n), 0.2, 11, [12]),
        (np.full(n, -0.3), 1e-3, 3, [0, 19, 19, 5]),
    ]


def _solo(spec, run, dt, n, scheme):
    x0, eps, seed, idx = run
    return integrate_sde(spec, x0, max(idx) * dt, dt, n, seed=seed, epsilon=eps, scheme=scheme, store_indices=idx)


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("n", [1, 300, BLOCK + 5])
@pytest.mark.parametrize("scheme", ["baoab", "euler_maruyama"])
@pytest.mark.parametrize("model", ["quartic", "lin2d_rot"])
def test_each_run_of_one_loop_equals_its_own_integrate_sde(monkeypatch, model, scheme, n, cores):
    # rows of different runs share the loop's arrays, and BLOCK + 5 paths
    # split over two cores cut one run between the ranges
    monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
    spec = corpus_spec(model)
    runs = _mixed_runs(spec)
    together = integrate_sde_runs(spec, runs, 0.01, n, scheme=scheme)
    assert len(together) == len(runs)
    for batch, run in zip(together, runs):
        solo = _solo(spec, run, 0.01, n, scheme)
        assert np.array_equal(batch.grid, solo.grid)
        assert np.array_equal(batch.states, solo.states), run
        assert batch.excluded == solo.excluded and batch.coupled is None


@pytest.mark.parametrize("scheme", ["baoab", "euler_maruyama"])
def test_a_run_counts_only_the_paths_it_excludes_by_its_last_step(scheme):
    # F(q) = -q from the origin: the 20-step run's paths explode after its
    # last step, as the 104-step run of the same seed shows; stepped on in
    # the shared loop they are zeroed but not excluded
    spec, x0 = _inverted_spec(), np.zeros(2)
    runs = [(x0, 1.0, 1, [10, 20]), (x0, 1.0, 1, [52, 104])]
    short, long = integrate_sde_runs(spec, runs, 0.5, 300, scheme=scheme)
    solo_short, solo_long = (_solo(spec, run, 0.5, 300, scheme) for run in runs)
    assert short.excluded == solo_short.excluded == 0 < solo_long.excluded == long.excluded
    assert np.array_equal(short.states, solo_short.states)
    assert np.array_equal(long.states, solo_long.states)


@pytest.mark.parametrize("cores", [1, 3])
def test_runs_of_any_sizes_match_the_per_block_oracle(monkeypatch, cores):
    # BLOCK, 1 and BLOCK + 3 paths: on three cores the 1-path run is a range
    # of its own, which steps a second row beside it
    monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
    spec = corpus_spec("lin2d_rot")
    d = spec.dim
    sizes, seeds, steps = [BLOCK, 1, BLOCK + 3], [5, 6, 5], [6, 9, 4]
    x0s = np.array([[0.4, 0.1, 0.0, 0.2], [-0.3, 0.2, 0.1, 0.0], [0.1, 0.1, 0.1, 0.1]])
    start = simulate._langevin_step(spec, x0s, [0.05, 0.2, 1e-3], 0.01, "baoab")

    def outputs(kernel):
        states = [np.empty((n, 3, 2 * d)) for n in sizes]
        runs = [(n, seed, k, np.array([0, k // 2, k]), (s[:, :, :d], s[:, :, d:]))
                for n, seed, k, s in zip(sizes, seeds, steps, states)]
        return [kernel(runs, d, start, guard=True)] + states

    if cores == 3:
        assert simulate._block_ranges(sizes, cores) == [(0, BLOCK), (BLOCK, BLOCK + 1), (BLOCK + 1, 2 * BLOCK + 4)]
    for a, b in zip(outputs(simulate._run_ensemble), outputs(_per_block_ensemble)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n_paths, runs", [(1, BLOCK), (256, 16), (BLOCK // 2, 2), (BLOCK // 2 + 1, 1), (BLOCK + 5, 1)])
def test_a_loop_takes_the_runs_that_fill_one_noise_block(n_paths, runs):
    assert simulate.runs_per_loop(n_paths) == runs


def test_one_loop_checks_every_run_and_takes_none():
    spec, x0 = corpus_spec("quartic"), np.array([0.5, 0.0])
    assert integrate_sde_runs(spec, [], 0.01, 8) == []
    for run, match in [((x0, -0.1, 0, [3]), "nonnegative"), ((x0, 0.1, -1, [3]), "seed"),
                       ((x0, 0.1, 0, [2.5]), "integer steps"), ((x0, 0.1, 0, [-1, 3]), r"lie in"),
                       ((np.zeros(1), 0.1, 0, [3]), None)]:
        with pytest.raises(ParameterError, match=match):
            integrate_sde_runs(spec, [(x0, 0.1, 0, [4]), run], 0.01, 8)
    with pytest.raises(ParameterError, match="unknown scheme"):
        integrate_sde_runs(spec, [(x0, 0.1, 0, [4])], 0.01, 8, scheme="rk4")


def test_a_run_draws_nothing_after_its_last_step(monkeypatch):
    # the 2-step run's one block draws at steps 1 and 2; the 4-step run's
    # two blocks draw at every step, each only the rows of its own paths
    monkeypatch.setattr(simulate, "_usable_cores", lambda: 1)
    draws, block_rng = [], simulate._block_rng
    monkeypatch.setattr(simulate, "_block_rng", lambda seed, b: _RecordingRng(block_rng(seed, b), (seed, b), draws))
    runs = [(3, 7, 2, [0], (None,)), (BLOCK + 2, 8, 4, [0], (None,))]
    simulate._run_ensemble(runs, 1, lambda owner: ((np.zeros((len(owner), 1)),), lambda k, s, xi: s))
    long_run = [((8, 0), (BLOCK, 1)), ((8, 1), (2, 1))]
    assert draws == ([((7, 0), (3, 1))] + long_run) * 2 + long_run * 2
