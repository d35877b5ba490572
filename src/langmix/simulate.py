"""Stochastic simulation of the noisy dynamics and its Gaussian surrogate.

Every ensemble (the noisy process X, the Gaussian fluctuation Y, the coupled
X/Y/Z run and the Pinsker bound) runs through one kernel, _run_ensemble.
Y alone takes the exact frozen-A step of integrate_fluctuation; a coupled
run steps its Y by Euler-Maruyama on the normals that step X.
Paths fall into fixed blocks of BLOCK.  At step k each block draws its
noise from a counter-based generator (Philox; Salmon et al. 2011) keyed by
(seed, block index) and started at counter (0, k, 0, 0), and only as many
rows as it has paths, so results are bitwise reproducible and independent
of how many paths run and of how blocks are scheduled.  The blocks are
split into one contiguous range per usable core, and each range runs its
own step loop on arrays of its paths, in a thread of its own, with a step
that start builds for that range and that owns its scratch buffers.  The
Langevin state is (q, p, F(q)) for BAOAB and Euler-Maruyama alike: the step
carries the force at its closing position into the next step, so both make
one force call per step.  Noise enters the momentum equation only.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.spatial import cKDTree

from .errors import MethodError, ParameterError
from .gaussian_tv import Gaussian, tv_gaussian
from .linear_stability import BLOWUP, flow_zero_noise, lyapunov_H
from .model import ModelSpec, drift_matrix, noise_matrix, phase_point

log = logging.getLogger(__name__)

#: paths per noise block; fixed so that partitioning does not change streams
BLOCK = 4096

# Neighbours of the knn two-sample classifier; odd, so a vote never ties.
_KNN_K = 5
#: smallest cloud of the knn estimator: it trains on half of each of two equal clouds
KNN_MIN_POINTS = 2 * math.ceil(_KNN_K / 2)
# Bootstrap resamples behind the stderr of the moment-matched TV estimate.
_N_BOOTSTRAP = 16


def check_seed(seed: int) -> int:
    """The seed, once it is a nonnegative integer: the key of every noise stream.

    A Python or numpy integer passes; a bool, a float or a string does not.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer; got {seed!r}")
    return seed


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    # an explicit uint64 key: from a list, numpy converts keys of 2^63 and above through float64
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TrajectoryBatch:
    """Seeded ensemble of sample paths on a fixed output grid.

    states has shape (n_paths, n_times, 2d).  coupled is None except from a
    coupled integrate_sde run, where it holds the deterministic path "ode"
    (n_times, 2d) and the ensembles "Y" and "Z" built from the Brownian
    increments of states, with Z = ode + sqrt(2 eps) Y exactly on the grid.
    """

    grid: np.ndarray
    states: np.ndarray
    excluded: int = 0
    coupled: Optional[dict] = None


def _usable_cores() -> int:
    """The CPUs this process may run on: the number of threads an ensemble splits into."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _block_ranges(n_paths: int, n_ranges: int) -> list:
    """Row ranges (lo, hi) of whole noise blocks, at most n_ranges of them, about equal in rows.

    Each range ends at the block boundary nearest to its share of the rows,
    the last one at n_paths.  A range keeps at least two rows, so a 1-row
    tail joins the range before it.
    """
    n_blocks = (n_paths + BLOCK - 1) // BLOCK
    k = min(n_ranges, n_blocks)
    cuts = dict.fromkeys([round(i * n_paths / (k * BLOCK)) for i in range(k)] + [n_blocks])
    bounds = [c * BLOCK for c in cuts][:-1] + [n_paths]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 2:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


def _in_threads(runs: list, failed: list) -> list:
    """The results of runs[0] in this thread and of each other run in a thread of its own.

    Each thread runs under a copy of this thread's context, so numpy's
    errstate holds there too.  A run's exception goes to failed, which the
    runs poll to stop early; once every thread has joined, the first one is
    raised.
    """
    import contextvars
    import threading

    results = [None] * len(runs)

    def call(i):
        try:
            results[i] = runs[i]()
        except BaseException as exc:  # raised below, in the calling thread
            failed.append(exc)

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(call, i)) for i in range(1, len(runs))
    ]
    for t in threads:
        t.start()
    call(0)
    for t in threads:
        t.join()
    if failed:
        raise failed[0]
    return results


def _run_ensemble(n_paths, seed, n_steps, width, start, store_idx, outs, guard=False):
    """The one Monte Carlo loop: n_paths paths, n_steps steps, one range of blocks per core.

    start(m) gives (state, step) for m paths: the state is a tuple of arrays
    with m rows, and step(k, state, xi) advances it over step k, in place or
    not, with xi the (m, width) normals of step k.  Each range calls start
    once, so its step may keep buffers of its own rows in its closure.  At
    step k, noise block b (paths b*BLOCK to (b+1)*BLOCK) sets its Philox
    generator, keyed by (seed, b), to counter (0, k, 0, 0) and draws the
    rows of its paths in the range only: BLOCK
    for a full block, the rest of the range's rows (two at least) for its
    last one.  A draw of m rows is the first m rows of a BLOCK-row draw, a
    step's stream does not depend on what earlier steps drew, and a step
    advances only counter word 0, by far less than 2^64, so every path's
    noise is a pure function of (seed, path, step), independent of how many
    paths run.  The blocks are split into contiguous ranges (_block_ranges),
    one per usable core, and each range runs every step on a state of its
    own rows, the first range in this thread and each other one in a thread
    of its own; one range starts no thread.  The steps are row-wise, so
    every path is the same bit for bit however many ranges run; start, the
    steps and the outs must then be safe to use from several threads on
    disjoint rows.  Each range's state, step, noise and guard buffers are
    built here, before any thread starts, so no two ranges share a buffer.
    A state always has at least two rows: on a single row numpy's matmul
    takes a matrix-vector path that rounds differently.  At the i-th index
    of store_idx (ascending, starting at 0) each state[j] with outs[j] not
    None is written to outs[j][rows of the range, i].  With guard, state starts
    with (q, p), and the paths a step leaves with |q|^2 + |p|^2 not below
    BLOWUP^2 (NaN and inf fail the comparison too) are zeroed in every
    state array.  The squared norms go into row buffers allocated once, so
    the guard makes no temporaries on the paths' scale; einsum may round a
    sum of three or more squares differently in the last bit, which only
    the comparison reads.  Returns the mask of the paths never zeroed, and
    logs how many were; an exception in any range is raised once every
    range has stopped.
    """
    failed = []

    def range_run(lo, hi):
        b0, b1 = lo // BLOCK, (hi + BLOCK - 1) // BLOCK
        rngs = [_block_rng(seed, b) for b in range(b0, b1)]
        # each block's stream state at counter (0, 0, 0, 0) with no buffered
        # output; a step sets counter word 1 to its index
        seeks = [rng.bit_generator.state for rng in rngs]
        rows = max(hi - lo, 2)
        xi = np.empty((rows, width))
        blocks = [xi[i * BLOCK : (i + 1) * BLOCK] for i in range(b1 - b0)]
        alive = np.ones(rows, dtype=bool)
        state, step = start(rows)
        norm2, p2 = np.empty(rows), np.empty(rows)
        ok = np.empty(rows, dtype=bool)

        def store(i, s):
            for out, a in zip(outs, s):
                if out is not None:
                    out[lo:hi, i] = a[: hi - lo]

        def run():
            nonlocal state
            s, state = state, None  # no reference to arrays the step replaces
            store(0, s)
            si = 1
            for k in range(1, n_steps + 1):
                if failed:
                    break
                for rng, seek, block in zip(rngs, seeks, blocks):
                    seek["state"]["counter"][1] = k
                    rng.bit_generator.state = seek
                    rng.standard_normal(out=block)
                s = step(k, s, xi)
                if guard:
                    q, p = s[0], s[1]
                    with np.errstate(over="ignore", invalid="ignore"):
                        np.einsum("ij,ij->i", q, q, out=norm2)
                        np.add(norm2, np.einsum("ij,ij->i", p, p, out=p2), out=norm2)
                        np.less(norm2, BLOWUP**2, out=ok)
                    if not ok.all():
                        bad = ~ok
                        alive[bad] = False
                        for a in s:
                            a[bad] = 0.0
                if si < len(store_idx) and k == store_idx[si]:
                    store(si, s)
                    si += 1
            return alive[: hi - lo]

        return run

    runs = [range_run(lo, hi) for lo, hi in _block_ranges(n_paths, _usable_cores())]
    alive = np.concatenate(_in_threads(runs, failed))
    if not alive.all():
        log.warning("excluded %d exploded paths out of %d", int(np.sum(~alive)), n_paths)
    return alive


def _checked_start(
    spec: ModelSpec, x0, t_end: float, dt: float, n_paths: int, store_every: int, seed: int
) -> np.ndarray:
    """x0 as an array, once the run arguments every simulator shares are valid."""
    if dt <= 0 or t_end < 0 or n_paths < 1 or store_every < 1:
        raise ParameterError("need dt > 0, t_end >= 0, n_paths >= 1, store_every >= 1")
    check_seed(seed)
    return phase_point(spec, x0)


def _langevin_step(spec: ModelSpec, x0: np.ndarray, epsilon: float, dt: float, scheme: str):
    """The start of the noisy dynamics from x0, on the state (q, p, F(q)), for _run_ensemble.

    start(m) returns the state of m paths and a step driven by d standard
    normals per path that updates q and p in place, through scratch arrays
    of m rows that start allocates with the step and that the step keeps in
    its closure: temporaries on the paths' scale, freed and faulted back in
    at every step, cost more than the arithmetic.  BAOAB keeps one scratch
    array and Euler-Maruyama two; as each range builds its own step, ranges
    can step at once in separate threads.  Each update is the same
    operation as its out-of-place form, so the values are too, bit for bit.
    The step carries the force at its closing q, which is the next step's
    opening force, so each step makes one force call.
    """
    F = spec.force.eval_F
    d = spec.dim
    g = spec.gamma
    h = 0.5 * dt
    c_ou = math.exp(-g * dt)
    sig_ou = math.sqrt(max(epsilon / g * (1.0 - c_ou**2), 0.0))
    sqrt2eps_dt = math.sqrt(2.0 * epsilon * dt)

    def start(m):
        q = np.tile(x0[:d], (m, 1))
        t = np.empty((m, d))
        dp = np.empty((m, d)) if scheme == "euler_maruyama" else None

        def baoab(k, s, xi):
            q, p, f = s
            p -= np.multiply(h, f, out=t)
            q += np.multiply(h, p, out=t)
            p *= c_ou
            p += np.multiply(sig_ou, xi, out=t)
            q += np.multiply(h, p, out=t)
            f = F(q)
            p -= np.multiply(h, f, out=t)
            return q, p, f

        def euler_maruyama(k, s, xi):
            # dp = dt * (-f - g * p) + sqrt2eps_dt * xi, one operation at a
            # time; out= writes into the closure's dp without rebinding it
            q, p, f = s
            np.negative(f, out=dp)
            np.subtract(dp, np.multiply(g, p, out=t), out=dp)
            np.multiply(dp, dt, out=dp)
            np.add(dp, np.multiply(sqrt2eps_dt, xi, out=t), out=dp)
            q += np.multiply(dt, p, out=t)
            p += dp
            return q, p, F(q)

        return (q, np.tile(x0[d:], (m, 1)), F(q)), baoab if scheme == "baoab" else euler_maruyama

    return start


def _fluctuation_step(spec: ModelSpec, ode_states: np.ndarray, dt: float):
    """The exact step (y,) -> (y,) of dY = A(q_t) Y dt + J dB along the zero-noise path, on 2d normals.

    A is frozen at the step's opening point of ode_states, and the step is
    the Van Loan propagator of the frozen equation; a linear force has one A.
    """
    d = spec.dim
    n_steps = len(ode_states) - 1
    J = noise_matrix(d)
    if spec.force.matrix is not None:
        steps = [_vanloan_step_noise(drift_matrix(spec, ode_states[0, :d]), dt, J)] * n_steps
    else:
        steps = [_vanloan_step_noise(A, dt, J) for A in drift_matrix(spec, ode_states[:-1, :d])]

    def step(k, s, xi):
        E, L = steps[k - 1]
        return (s[0] @ E.T + xi @ L.T,)

    return step


def integrate_sde(
    spec: ModelSpec,
    x0,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int,
    epsilon: float,
    scheme: str = "baoab",
    store_every: int = 1,
    couple_fluctuation: bool = False,
    store_indices=None,
) -> TrajectoryBatch:
    """Simulate dq = p dt, dp = -F(q) dt - gamma p dt + sqrt(2 eps) dB.

    Schemes: "euler_maruyama" and "baoab" (the friction-noise substep is an
    exact Ornstein-Uhlenbeck update).  The noise level epsilon must be
    nonnegative; at eps = 0 both schemes reduce to deterministic integrators
    of the zero-noise flow at their respective orders.  Paths that leave
    the ball of radius BLOWUP = 1e12 or turn non-finite are excluded and
    counted.
    The states are stored at every store_every-th of the n_steps =
    round(t_end / dt) steps, from step 0.  store_indices, when given,
    overrides store_every: the states are stored at the distinct integer
    steps it lists, each in [0, n_steps], in increasing order, and always at
    step 0.
    With couple_fluctuation (Euler-Maruyama only) the Gaussian fluctuation Y
    takes the Euler-Maruyama step y + dt y A(q_k)^T + sqrt(dt) [0, xi_k] along
    the zero-noise path, on the normals xi_k that step X, and the surrogate
    is Z = ode + sqrt(2 eps) Y; the paths excluded from X leave Y and Z too.
    """
    if scheme not in ("euler_maruyama", "baoab"):
        raise ParameterError(f"unknown scheme {scheme!r}")
    if couple_fluctuation and scheme != "euler_maruyama":
        raise ParameterError("coupled fluctuation runs require the euler_maruyama scheme")
    if epsilon < 0:
        raise ParameterError("noise level epsilon must be nonnegative")
    x0 = _checked_start(spec, x0, t_end, dt, n_paths, store_every, seed)
    d = spec.dim
    n_steps = int(round(t_end / dt))
    if store_indices is None:
        store_idx = np.arange(0, n_steps + 1, store_every)
    else:
        idx = np.asarray(store_indices)
        if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
            raise ParameterError("store_indices must be a list of integer steps")
        store_idx = np.unique(np.concatenate([[0], idx.astype(int)]))
        if store_idx[0] < 0 or store_idx[-1] > n_steps:
            raise ParameterError("store_indices must lie in [0, n_steps]")

    start = _langevin_step(spec, x0, epsilon, dt, scheme)
    states = np.empty((n_paths, len(store_idx), 2 * d))
    outs = (states[:, :, :d], states[:, :, d:])
    if couple_fluctuation:
        ode_path = flow_zero_noise(spec, x0, t_end, dt).states
        A_path = drift_matrix(spec, ode_path[:-1, :d])
        sqrt_dt = math.sqrt(dt)
        x_start = start
        y_states = np.empty_like(states)
        # the state (q, p, F(q), y): F(q) is not stored
        outs += (None, y_states)

        def start(m):
            x, x_step = x_start(m)

            def step(k, s, xi):
                y = s[3]
                dy = dt * (y @ A_path[k - 1].T)
                dy[:, d:] += sqrt_dt * xi
                return x_step(k, s[:3], xi) + (y + dy,)

            return x + (np.zeros((m, 2 * d)),), step

    alive = _run_ensemble(n_paths, seed, n_steps, d, start, store_idx, outs, guard=True)

    excluded = int(np.sum(~alive))
    if excluded:
        states = states[alive]
        if couple_fluctuation:
            y_states = y_states[alive]

    coupled = None
    if couple_fluctuation:
        ode_stored = ode_path[store_idx]
        z = ode_stored[None, :, :] + math.sqrt(2.0 * epsilon) * y_states
        coupled = {"ode": ode_stored, "Y": y_states, "Z": z}
    return TrajectoryBatch(grid=store_idx * dt, states=states, excluded=excluded, coupled=coupled)


def _vanloan_step_noise(A: np.ndarray, dt: float, J: np.ndarray):
    """Exact one-step propagator and noise covariance factor for frozen A.

    E = expm(A dt) and Q = int_0^dt e^{A s} J e^{A^T s} ds via the block
    exponential of [[A, J], [0, -A^T]] dt; returns (E, cholesky(Q)).
    """
    n = A.shape[0]
    C = np.zeros((2 * n, 2 * n))
    C[:n, :n] = A
    C[:n, n:] = J
    C[n:, n:] = -A.T
    Phi = sla.expm(C * dt)
    E = Phi[:n, :n]
    Q = Phi[:n, n:] @ E.T
    Q = 0.5 * (Q + Q.T)
    jitter = 1e-15 * max(np.trace(Q) / n, 1e-300)
    L = np.linalg.cholesky(Q + jitter * np.eye(n))
    return E, L


def integrate_fluctuation(
    spec: ModelSpec,
    x0,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int,
    store_every: int = 1,
) -> TrajectoryBatch:
    """Simulate the Gaussian fluctuation dY = A(q_t) Y dt + dB restricted to momenta.

    Y starts at zero and rides along the deterministic path from x0.  Each
    step freezes A at its opening point and propagates with the matrix
    exponential and the exact one-step noise covariance (Van Loan), so the
    per-time law is unbiased for piecewise-constant A and exactly right for
    linear forces.  The batch has no coupled arrays; integrate_sde's coupled
    run gives the Euler-Maruyama Y that shares X's increments.
    """
    x0 = _checked_start(spec, x0, t_end, dt, n_paths, store_every, seed)
    d = spec.dim
    ode = flow_zero_noise(spec, x0, t_end, dt)
    n_steps = len(ode.grid) - 1
    store_idx = np.arange(0, n_steps + 1, store_every)
    step = _fluctuation_step(spec, ode.states, dt)
    states = np.empty((n_paths, len(store_idx), 2 * d))
    _run_ensemble(n_paths, seed, n_steps, 2 * d, lambda m: ((np.zeros((m, 2 * d)),), step), store_idx, (states,))
    return TrajectoryBatch(grid=store_idx * dt, states=states)


def _omega(n: int, d: int) -> float:
    w = 1.0
    for j in range(2, n + 1):
        w *= d + 2 * (j - 1)
    return w


def moment_bound(spec: ModelSpec, x, t, epsilon: float, n: int = 1) -> np.ndarray:
    """Bound kappa0^n omega_n (H(x) exp(-lam t) + d eps / lam)^n on E|X_t|^(2n)."""
    if n < 0:
        raise ParameterError("moment order must be nonnegative")
    if epsilon < 0:
        raise ParameterError("noise level epsilon must be nonnegative")
    t = np.asarray(t, dtype=float)
    h = float(lyapunov_H(spec, np.asarray(x, dtype=float)))
    core = h * np.exp(-spec.lam * t) + spec.dim * epsilon / spec.lam
    return spec.kappa0**n * _omega(n, spec.dim) * core**n


def exp_moment_bound(spec: ModelSpec, x, t: float, epsilon: float) -> float:
    """Largest a below which E[exp(a |X_t|^2)] < 2 is guaranteed: 1 / (2 (d + 2) moment_bound)."""
    return 1.0 / (2.0 * (spec.dim + 2) * float(moment_bound(spec, x, t, epsilon)))


@dataclass
class TVEstimate:
    estimate: float
    stderr: float
    method: str


def _knn_tv(s1: np.ndarray, s2: np.ndarray, seed: int) -> TVEstimate:
    half1, half2 = len(s1) // 2, len(s2) // 2
    if half1 + half2 < _KNN_K:
        raise ParameterError(
            f"the knn classifier trains on half of each cloud and needs {_KNN_K} training "
            f"points, i.e. {KNN_MIN_POINTS} points per cloud; got {len(s1)} and {len(s2)}"
        )
    rng = np.random.default_rng(seed)
    i1 = rng.permutation(len(s1))
    i2 = rng.permutation(len(s2))
    train = np.vstack([s1[i1[:half1]], s2[i2[:half2]]])
    labels = np.concatenate([np.zeros(half1, dtype=int), np.ones(half2, dtype=int)])
    tree = cKDTree(train)
    accs = []
    ns = []
    for cls, test in ((0, s1[i1[half1:]]), (1, s2[i2[half2:]])):
        # a second query worker pays off on large clouds only; on a few
        # hundred points its start-up costs more than the query
        _, idx = tree.query(test, k=_KNN_K, workers=_usable_cores() if len(test) >= BLOCK else 1)
        pred = (labels[idx].mean(axis=1) > 0.5).astype(int)
        accs.append(float(np.mean(pred == cls)))
        ns.append(len(test))
    bal = 0.5 * (accs[0] + accs[1])
    est = max(0.0, 2.0 * bal - 1.0)
    var = sum(a * (1 - a) / n for a, n in zip(accs, ns)) / 4.0
    return TVEstimate(estimate=est, stderr=2.0 * math.sqrt(var), method="classifier_knn")


def empirical_tv(
    samples1,
    samples2,
    method: str = "gaussian_momentmatch",
    seed: int = 0,
) -> TVEstimate:
    """Total-variation estimate between two point clouds.

    "gaussian_momentmatch" fits a Gaussian to each cloud and evaluates the TV
    between the fits by deterministic quadrature in any dimension; its stderr
    comes from a small seeded bootstrap over the clouds, the estimate's only
    randomness.
    "classifier_knn" converts the held-out balanced accuracy of a k-nearest
    neighbour two-sample classifier: TV ~ 2 accuracy - 1, clamped to [0, 1].
    A 1-d array holds n points on the line, as its (n, 1) reshape does.
    """
    s1, s2 = (np.asarray(s, dtype=float) for s in (samples1, samples2))
    s1, s2 = (s[:, None] if s.ndim == 1 else np.atleast_2d(s) for s in (s1, s2))
    if s1.shape[1] != s2.shape[1]:
        raise ParameterError("sample clouds must share a dimension")
    if len(s1) < 4 or len(s2) < 4:
        raise ParameterError("need at least 4 points per cloud")
    if method == "classifier_knn":
        return _knn_tv(s1, s2, seed)
    if method != "gaussian_momentmatch":
        raise MethodError(f"unknown method {method!r}")

    def fit_tv(a: np.ndarray, b: np.ndarray) -> float:
        ga = Gaussian(mean=a.mean(axis=0), cov=np.atleast_2d(np.cov(a, rowvar=False)))
        gb = Gaussian(mean=b.mean(axis=0), cov=np.atleast_2d(np.cov(b, rowvar=False)))
        return tv_gaussian(ga, gb, method="cdf_quadrature").value

    try:
        est = fit_tv(s1, s2)
    except np.linalg.LinAlgError:
        warnings.warn("degenerate sample covariance; falling back to the knn classifier")
        return _knn_tv(s1, s2, seed)
    rng = np.random.default_rng(seed)
    boots = []
    for _ in range(_N_BOOTSTRAP):
        r1 = s1[rng.integers(0, len(s1), len(s1))]
        r2 = s2[rng.integers(0, len(s2), len(s2))]
        boots.append(fit_tv(r1, r2))
    return TVEstimate(
        estimate=est,
        stderr=float(np.std(boots, ddof=1)),
        method="gaussian_momentmatch",
    )


def pinsker_kl_bound(
    spec: ModelSpec,
    x0,
    t_end: float,
    dt: float,
    n_paths: int,
    seed: int,
    epsilon: float,
) -> float:
    """Monte Carlo KL-type bound whose square root dominates d_TV(X_t, Z_t).

    Estimates (1 / 2 eps) int_0^t E |F(q_s^eps) - F(q_s) - DF(q_s)(q_s^eps - q_s)|^2 ds
    by trapezoidal accumulation against the deterministic position path,
    along the Euler-Maruyama ensemble that integrate_sde runs for the same
    seed.  Identically zero for linear forces.  When that ensemble has
    paths that integrate_sde would exclude as exploded, the count is logged
    and the result is math.inf, a valid but vacuous bound.
    """
    if epsilon <= 0:
        raise ParameterError("the bound needs a positive noise level")
    x0 = _checked_start(spec, x0, t_end, dt, n_paths, 1, seed)
    d = spec.dim
    ode = flow_zero_noise(spec, x0, t_end, dt)
    q_det = ode.states[:, :d]
    f_det = spec.force.eval_F(q_det)
    DF_det = spec.force.eval_DF(q_det)
    n_steps = len(ode.grid) - 1

    def integrand(k, q, f):
        lin = f_det[k] + np.einsum("ij,nj->ni", DF_det[k], q - q_det[k])
        rem = f - lin
        return np.sum(rem * rem, axis=1)

    # state: the Euler-Maruyama state (q, p, F(q)), led by (q, p) for the
    # blow-up guard, then the trapezoid sum and the integrand at the last
    # step; the integrand reads the force the step carries
    x_start = _langevin_step(spec, x0, epsilon, dt, "euler_maruyama")

    def start(m):
        x, x_step = x_start(m)

        def step(k, s, xi):
            x = x_step(k, s[:3], xi)
            cur = integrand(k, x[0], x[2])
            return x + (s[3] + 0.5 * dt * (s[4] + cur), cur)

        return x + (np.zeros(m), integrand(0, x[0], x[2])), step

    store_idx = np.unique([0, n_steps])
    acc = np.empty((n_paths, len(store_idx)))
    alive = _run_ensemble(n_paths, seed, n_steps, d, start, store_idx, (None, None, None, acc), guard=True)
    if not alive.all():  # the ensemble is unbounded, and so is the bound
        return math.inf
    return float(np.sum(acc[:, -1])) / n_paths / (2.0 * epsilon)
