"""Stochastic simulation of the noisy dynamics and its Gaussian surrogate.

Every ensemble (the noisy process X, the Gaussian fluctuation Y, the coupled
X/Y/Z run and the Pinsker bound) runs through one kernel, _run_ensemble.
Y alone takes the exact frozen-A step of integrate_fluctuation; a coupled
run steps its Y by Euler-Maruyama on the normals that step X.
integrate_sde_runs steps several ensembles of one model (each its own
start, noise level, seed and length) as the rows of one loop.
Paths fall into fixed blocks of BLOCK.  At step k each block draws its
noise from a counter-based generator (Philox; Salmon et al. 2011) keyed by
(seed, block index) and started at counter (0, k, 0, 0), and only as many
rows as it has paths, so results are bitwise reproducible and independent
of how many paths and ensembles run and of how blocks are scheduled.  The
blocks are split into one contiguous range per usable core, and each range
runs its own step loop on arrays of its paths, in a thread of its own, with
a step that start builds for that range and that owns its scratch buffers.
The Langevin state is (q, p, F(q)) for BAOAB and Euler-Maruyama alike: the
step carries the force at its closing position into the next step, so both
make one force call per step.  Noise enters the momentum equation only.
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
# The guard's bound on the sum of a range's squared norms: below it, rounding
# cannot lift any one row's norm to BLOWUP^2.
_GUARD_SUM = BLOWUP**2 / 2


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


def _block_ranges(sizes, n_ranges: int) -> list:
    """Row ranges (lo, hi) of whole noise blocks over runs of sizes paths laid end to end.

    Each run's paths fall into blocks of BLOCK from its own first path.
    There are at most min(n_ranges, ceil(total / BLOCK)) ranges, about equal
    in rows: each range ends at the block boundary nearest to its share of
    the rows, the last one at the total.  A range keeps at least two rows,
    so a 1-row tail joins the range before it.
    """
    edges, total = [0], 0
    for n in sizes:
        edges += [total + min(b + BLOCK, n) for b in range(0, n, BLOCK)]
        total += n
    k = min(n_ranges, -(-total // BLOCK))
    bounds = list(dict.fromkeys([min(edges, key=lambda e: abs(k * e - i * total)) for i in range(k)] + [total]))
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


def _run_ensemble(runs, width, start, guard=False):
    """The one Monte Carlo loop: the paths of every run stepped together, one range of blocks per core.

    runs lists one (n_paths, seed, n_steps, store_idx, outs) per run, and
    the runs' paths are the rows of one ensemble, laid end to end in run
    order.  start(owner) gives (state, step) for the rows whose runs the
    integer array owner lists: the state is a tuple of arrays with
    len(owner) rows, and step(k, state, xi) advances it over step k, in
    place or not, with xi the (rows, width) normals of step k.  Each range
    calls start once, so its step may keep buffers of its own rows in its
    closure.  Each run's paths fall into noise blocks of BLOCK from its own
    first path.  At step k, noise block b of a run (its paths b*BLOCK to
    (b+1)*BLOCK) sets its Philox generator, keyed by (the run's seed, b), to
    counter (0, k, 0, 0) and draws the rows of its paths in the range only:
    BLOCK for a full block, fewer for the run's last one.  A draw of m rows
    is the first m rows of a BLOCK-row draw, a step's stream does not depend
    on what earlier steps drew, and a step advances only counter word 0, by
    far less than 2^64, so every path's noise is a pure function of (seed,
    path, step), independent of how many paths and runs step together.  A
    run draws at steps 1 to its n_steps only; after its last step its rows
    step on without fresh noise, unread, and the guard no longer excludes
    them, so nothing a run reports depends on the runs beside it.  The
    blocks are split into contiguous ranges (_block_ranges), one per usable
    core, and each range runs the steps of its longest run on a state of
    its own rows, the first range in this thread and each other one in a
    thread of its own; one range starts no thread.  The steps are row-wise, so every
    path is the same bit for bit however many ranges run; start, the steps
    and the outs must then be safe to use from several threads on disjoint
    rows.  Each range's state, step, noise and guard buffers are built here,
    before any thread starts, so no two ranges share a buffer.  A state
    always has at least two rows: on a single row numpy's matmul takes a
    matrix-vector path that rounds differently, so a 1-row range steps a
    second path of its block's stream beside its own.  At the i-th step of
    a run's store_idx (ascending, distinct) each state[j] with outs[j] not
    None is written to outs[j][rows of the run, i].  With guard, state
    starts with (q, p), and the paths a step leaves with |q|^2 + |p|^2 not
    below BLOWUP^2 (NaN and inf fail the comparison too) are zeroed in every
    state array.  A range first compares the sum over all its rows with
    BLOWUP^2 / 2: a sum below that keeps every row's rounded norm below
    BLOWUP^2, so the per-row pass runs only when the sum is not below it,
    NaN and inf included.  The per-row norms go into row buffers allocated
    once; einsum may round a sum of three or more squares differently in
    the last bit, which only the comparison reads.  Returns the mask of the
    rows of all runs never excluded, and logs how many were; an exception
    in any range is raised once every range has stopped.
    """
    failed = []
    units, first = [], 0  # (run, block, lo, hi): block b of run j holds rows lo:hi of the ensemble
    for j, (n_paths, *_) in enumerate(runs):
        units += [(j, b // BLOCK, first + b, first + min(b + BLOCK, n_paths)) for b in range(0, n_paths, BLOCK)]
        first += n_paths

    def range_run(lo, hi):
        mine = [u for u in units if lo <= u[2] < hi]
        rows = max(hi - lo, 2)
        xi = np.empty((rows, width))
        owner = np.empty(rows, dtype=np.intp)
        alive = np.ones(rows, dtype=bool)
        last = np.empty(rows, dtype=np.int64)  # the last step of each row's run
        draws, stores = [], {}
        for j, b, u_lo, u_hi in mine:
            _, seed, n_steps, store_idx, outs = runs[j]
            r0, r1 = u_lo - lo, u_hi - lo
            block = xi[r0 : rows if u_hi == hi else r1]
            owner[r0 : r0 + len(block)], last[r0 : r0 + len(block)] = j, n_steps
            rng = _block_rng(seed, b)
            # the stream state at counter (0, 0, 0, 0) with no buffered
            # output; a step sets counter word 1 to its index
            draws.append((n_steps, rng, rng.bit_generator.state, block))
            o0 = b * BLOCK
            for i, k in enumerate(map(int, store_idx)):
                stores.setdefault(k, []).append((i, outs, r0, r1, o0, o0 + r1 - r0))
        state, step = start(owner)
        norm2, p2 = np.empty(rows), np.empty(rows)
        ok = np.empty(rows, dtype=bool)
        n_max = max(n_steps for n_steps, *_ in draws)

        def store(k, s):
            for i, outs, r0, r1, o0, o1 in stores.get(k, ()):
                for out, a in zip(outs, s):
                    if out is not None:
                        out[o0:o1, i] = a[r0:r1]

        def run():
            nonlocal state
            s, state = state, None  # no reference to arrays the step replaces
            store(0, s)
            for k in range(1, n_max + 1):
                if failed:
                    break
                for n_steps, rng, seek, block in draws:
                    if k <= n_steps:
                        seek["state"]["counter"][1] = k
                        rng.bit_generator.state = seek
                        rng.standard_normal(out=block)
                s = step(k, s, xi)
                if guard:
                    q, p = s[0], s[1]
                    # Python floats: their sum overflows to inf without a floating-point error
                    if not float(np.einsum("ij,ij->", q, q)) + float(np.einsum("ij,ij->", p, p)) < _GUARD_SUM:
                        with np.errstate(over="ignore", invalid="ignore"):
                            np.einsum("ij,ij->i", q, q, out=norm2)
                            np.add(norm2, np.einsum("ij,ij->i", p, p, out=p2), out=norm2)
                            np.less(norm2, BLOWUP**2, out=ok)
                        if not ok.all():
                            bad = ~ok
                            alive[bad & (last >= k)] = False
                            for a in s:
                                a[bad] = 0.0
                store(k, s)
            return alive[: hi - lo]

        return run

    ranges = _block_ranges([n_paths for n_paths, *_ in runs], _usable_cores())
    alive = np.concatenate(_in_threads([range_run(lo, hi) for lo, hi in ranges], failed))
    if not alive.all():
        log.warning("excluded %d exploded paths out of %d", int(np.sum(~alive)), len(alive))
    return alive


def _checked_start(
    spec: ModelSpec, x0, t_end: float, dt: float, n_paths: int, store_every: int, seed: int
) -> np.ndarray:
    """x0 as an array, once the run arguments every simulator shares are valid."""
    if dt <= 0 or t_end < 0 or n_paths < 1 or store_every < 1:
        raise ParameterError("need dt > 0, t_end >= 0, n_paths >= 1, store_every >= 1")
    check_seed(seed)
    return phase_point(spec, x0)


def _langevin_step(spec: ModelSpec, x0s: np.ndarray, epsilons, dt: float, scheme: str):
    """The start of the noisy dynamics of runs from x0s[j] at noise level epsilons[j], on the state (q, p, F(q)).

    start(owner), for _run_ensemble, returns the state of the rows of the
    runs owner lists, each at its run's x0, and a step driven by d standard
    normals per row that updates q and p in place, through scratch arrays
    that start allocates with the step and that the step keeps in its
    closure: temporaries on the paths' scale, freed and faulted back in at
    every step, cost more than the arithmetic.  BAOAB keeps one scratch
    array and Euler-Maruyama two; as each range builds its own step, ranges
    can step at once in separate threads.  A row's noise factor is its
    run's, in a column: a product with a column of equal values is the
    same IEEE product as with the one scalar.  Each update is the same
    operation as its out-of-place form, so the values are too, bit for
    bit.  The step
    carries the force at its closing q, which is the next step's opening
    force, so each step makes one force call.
    """
    F = spec.force.eval_F
    d = spec.dim
    g = spec.gamma
    h = 0.5 * dt
    c_ou = math.exp(-g * dt)
    eps = np.asarray(epsilons, dtype=float)
    sig_ou = np.sqrt(np.maximum(eps / g * (1.0 - c_ou**2), 0.0))
    sqrt2eps_dt = np.sqrt(2.0 * eps * dt)

    def start(owner):
        q = x0s[owner, :d]
        t = np.empty_like(q)
        dp = np.empty_like(q) if scheme == "euler_maruyama" else None
        sig, noise = sig_ou[owner, None], sqrt2eps_dt[owner, None]

        def baoab(k, s, xi):
            q, p, f = s
            p -= np.multiply(h, f, out=t)
            q += np.multiply(h, p, out=t)
            p *= c_ou
            p += np.multiply(sig, xi, out=t)
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
            np.add(dp, np.multiply(noise, xi, out=t), out=dp)
            q += np.multiply(dt, p, out=t)
            p += dp
            return q, p, F(q)

        return (q, x0s[owner, d:], F(q)), baoab if scheme == "baoab" else euler_maruyama

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


def _check_sde(scheme: str, epsilon: float):
    if scheme not in ("euler_maruyama", "baoab"):
        raise ParameterError(f"unknown scheme {scheme!r}")
    if epsilon < 0:
        raise ParameterError("noise level epsilon must be nonnegative")


def _store_steps(store_indices, n_steps=None) -> np.ndarray:
    """The distinct integer steps of store_indices and step 0, ascending, once each lies in [0, n_steps].

    With n_steps None the steps need only be nonnegative: the last one is the run's last step.
    """
    idx = np.asarray(store_indices)
    if idx.ndim != 1 or (idx.size and not np.issubdtype(idx.dtype, np.integer)):
        raise ParameterError("store_indices must be a list of integer steps")
    store_idx = np.unique(np.concatenate([[0], idx.astype(int)]))
    if store_idx[0] < 0 or (n_steps is not None and store_idx[-1] > n_steps):
        raise ParameterError("store_indices must lie in [0, n_steps]")
    return store_idx


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
    _check_sde(scheme, epsilon)
    if couple_fluctuation and scheme != "euler_maruyama":
        raise ParameterError("coupled fluctuation runs require the euler_maruyama scheme")
    x0 = _checked_start(spec, x0, t_end, dt, n_paths, store_every, seed)
    n_steps = int(round(t_end / dt))
    if store_indices is None:
        store_idx = np.arange(0, n_steps + 1, store_every)
    else:
        store_idx = _store_steps(store_indices, n_steps)
    ode_path = flow_zero_noise(spec, x0, t_end, dt).states if couple_fluctuation else None
    return _sde_runs(spec, [(x0, epsilon, seed, store_idx, n_steps)], dt, n_paths, scheme, ode_path)[0]


def integrate_sde_runs(spec: ModelSpec, runs, dt: float, n_paths: int, scheme: str = "baoab") -> list:
    """Several integrate_sde ensembles of one model, stepped together in one loop.

    Each run is (x0, epsilon, seed, store_indices): n_paths paths from x0 at
    noise level epsilon on the noise streams of seed, stored at step 0 and
    the distinct nonnegative integer steps store_indices lists, the last of
    which is the run's last step.  Returns one TrajectoryBatch per run, in
    order, equal bit for bit to integrate_sde(spec, x0, t_end, dt, n_paths,
    seed, epsilon, scheme, store_indices=store_indices) with t_end the last
    step times dt: each run draws its own noise and reports only the paths
    excluded up to its last step.  Every run's stored states are held at
    once, so a caller with more runs than runs_per_loop(n_paths) passes
    them that many at a time.
    """
    checked = []
    for x0, epsilon, seed, store_indices in runs:
        _check_sde(scheme, epsilon)
        store_idx = _store_steps(store_indices)
        n_steps = int(store_idx[-1])
        checked.append((_checked_start(spec, x0, n_steps * dt, dt, n_paths, 1, seed), epsilon, seed, store_idx,
                        n_steps))
    return _sde_runs(spec, checked, dt, n_paths, scheme) if checked else []


def runs_per_loop(n_paths: int) -> int:
    """How many ensembles of n_paths paths one integrate_sde_runs loop should step: as many as fill one noise block, at least one.

    Below a block a step's cost is mostly numpy's per-call overhead, which
    the runs of one loop pay once.  Beyond it the arithmetic dominates, and
    a shared loop saves little but holds every run's stored states at once
    and steps a finished run's rows until its longest run ends.
    """
    return max(1, BLOCK // n_paths)


def _sde_runs(spec: ModelSpec, runs: list, dt: float, n_paths: int, scheme: str, ode_path=None) -> list:
    """One TrajectoryBatch per checked run (x0, epsilon, seed, store_idx, n_steps), from one _run_ensemble call.

    With ode_path, the zero-noise path from the x0 of the one run at every
    step, the batch also carries the coupled fluctuation of integrate_sde.
    """
    d = spec.dim
    start = _langevin_step(spec, np.array([r[0] for r in runs]), [r[1] for r in runs], dt, scheme)
    states = [np.empty((n_paths, len(r[3]), 2 * d)) for r in runs]
    outs = [(s[:, :, :d], s[:, :, d:]) for s in states]
    if ode_path is not None:
        A_path = drift_matrix(spec, ode_path[:-1, :d])
        sqrt_dt = math.sqrt(dt)
        x_start = start
        y_states = np.empty_like(states[0])
        # the state (q, p, F(q), y): F(q) is not stored
        outs[0] += (None, y_states)

        def start(owner):
            x, x_step = x_start(owner)

            def step(k, s, xi):
                y = s[3]
                dy = dt * (y @ A_path[k - 1].T)
                dy[:, d:] += sqrt_dt * xi
                return x_step(k, s[:3], xi) + (y + dy,)

            return x + (np.zeros((len(owner), 2 * d)),), step

    alive = _run_ensemble([(n_paths, seed, n_steps, store_idx, out)
                           for (_, _, seed, store_idx, n_steps), out in zip(runs, outs)], d, start, guard=True)
    batches = []
    for j, ((_, epsilon, _, store_idx, _), run_states) in enumerate(zip(runs, states)):
        kept = alive[j * n_paths : (j + 1) * n_paths]
        excluded = int(np.sum(~kept))
        coupled = None
        if ode_path is not None:
            y = y_states[kept] if excluded else y_states
            ode_stored = ode_path[store_idx]
            coupled = {"ode": ode_stored, "Y": y, "Z": ode_stored[None, :, :] + math.sqrt(2.0 * epsilon) * y}
        batches.append(TrajectoryBatch(grid=store_idx * dt, states=run_states[kept] if excluded else run_states,
                                       excluded=excluded, coupled=coupled))
    return batches


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
    _run_ensemble([(n_paths, seed, n_steps, store_idx, (states,))], 2 * d,
                  lambda owner: ((np.zeros((len(owner), 2 * d)),), step))
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
    x_start = _langevin_step(spec, x0[None, :], [epsilon], dt, "euler_maruyama")

    def start(owner):
        x, x_step = x_start(owner)

        def step(k, s, xi):
            x = x_step(k, s[:3], xi)
            cur = integrand(k, x[0], x[2])
            return x + (s[3] + 0.5 * dt * (s[4] + cur), cur)

        return x + (np.zeros(len(owner)), integrand(0, x[0], x[2])), step

    store_idx = np.unique([0, n_steps])
    acc = np.empty((n_paths, len(store_idx)))
    alive = _run_ensemble([(n_paths, seed, n_steps, store_idx, (None, None, None, acc))], d, start, guard=True)
    if not alive.all():  # the ensemble is unbounded, and so is the bound
        return math.inf
    return float(np.sum(acc[:, -1])) / n_paths / (2.0 * epsilon)
