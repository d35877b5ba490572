"""Fluctuation covariance along the zero-noise path.

The Gaussian fluctuation around the deterministic flow has covariance
Sigma_t solving dSigma/dt = J + A_t Sigma + Sigma A_t^T with Sigma_0 = 0,
where A_t = A(q_t) is the position-dependent linearization.  For a linear
force A_t = A is constant and the path is exact in closed form: the state
e^{At} x and Sigma_t = Sigma - e^{At} Sigma e^{A^T t}, with e^{At} taken on the
output grid as a product of two tables of matrix exponentials.  Any other
force co-integrates the flow and the matrix ODE in one adaptive solve.  A
caller that reads only some grid times asks for those steps alone.  The
module also provides the third-order short-time expansion and quantifies the
exponential approach to the stationary covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import ParameterError
from .linear_stability import _flow_rhs, solve_path
from .matrix_eq import sigma_matrix
from .model import ModelSpec, drift_matrix, noise_matrix, phase_point

GAP_DT = 0.01  # output spacing of the covariance path behind stationary_gap


@dataclass
class CovariancePath:
    grid: np.ndarray  # output times k dt, ascending
    covs: np.ndarray  # (n_times, 2d, 2d)
    states: np.ndarray  # (n_times, 2d) zero-noise path
    clamp_events: int
    dense: bool = True  # grid holds every k dt up to its end, not chosen steps

    def at(self, t: float):
        """(state, covariance) at time t.

        A dense path interpolates linearly between its two neighbouring grid
        times.  A path of chosen steps answers only at its grid times, to
        within 1e-12, and raises ParameterError anywhere else.
        """
        g = self.grid
        if not self.dense:
            hit = np.flatnonzero(np.abs(g - t) <= 1e-12)
            if not hit.size:
                raise ParameterError(f"time {t} is not one of the path's {len(g)} evaluated times")
            return self.states[hit[0]], self.covs[hit[0]]
        if t < g[0] - 1e-12 or t > g[-1] + 1e-12:
            raise ParameterError(f"time {t} outside the integrated range [{g[0]}, {g[-1]}]")
        i = int(np.clip(np.searchsorted(g, t) - 1, 0, len(g) - 2))
        w = (t - g[i]) / (g[i + 1] - g[i])
        x = (1 - w) * self.states[i] + w * self.states[i + 1]
        c = (1 - w) * self.covs[i] + w * self.covs[i + 1]
        return x, c


def _covariance_rhs(spec: ModelSpec, y: np.ndarray) -> np.ndarray:
    """Right-hand side of the joint ODE for y = (x, Sigma_t flattened row by row)."""
    d = spec.dim
    n = 2 * d
    x = y[:n]
    S = y[n:].reshape(n, n)
    A = drift_matrix(spec, x[:d])
    dS = noise_matrix(d) + A @ S + S @ A.T
    return np.concatenate([_flow_rhs(spec.force, spec.gamma, x), dS.ravel()])


def _ode_path(spec: ModelSpec, x0: np.ndarray, grid: np.ndarray, t_end: float):
    """(states, raw covariances) at the times of grid from one adaptive solve of the joint ODE
    over [0, t_end]; any force.  The solver's steps do not depend on which
    times grid holds, so a time gets the same bits in any grid of one t_end.
    """
    n = 2 * spec.dim
    y0 = np.concatenate([x0, np.zeros(n * n)])
    sol = solve_path(lambda y: _covariance_rhs(spec, y), y0, (0.0, t_end), n, t_eval=grid)
    y = np.reshape(sol.y, (n + n * n, len(grid)))  # scipy returns a list for an empty grid
    return y[:n].T.copy(), y[n:].T.reshape(-1, n, n)


def _linear_path(spec: ModelSpec, x0: np.ndarray, k: np.ndarray, dt: float, n_steps: int):
    """(states, covariances) of a linear force in closed form at the times k dt, 0 <= k <= n_steps.

    e^{A k dt} = coarse[k // B] @ fine[k % B] with B = ceil(sqrt(n_steps + 1)),
    from two stacked expm calls over the table entries that k uses, about
    sqrt(n_steps) each at most.  expm and matmul work matrix by matrix, so a
    time gets the same bits whichever other times k holds.
    """
    sigma = sigma_matrix(spec)
    A = drift_matrix(spec, np.zeros(spec.dim))
    B = math.isqrt(n_steps) + 1  # ceil(sqrt(n_steps + 1))
    jf, fi = np.unique(k % B, return_inverse=True)
    jc, ci = np.unique(k // B, return_inverse=True)
    fine = expm(A * (jf * dt)[:, None, None])
    coarse = expm(A * (jc * (B * dt))[:, None, None])
    E = coarse[ci] @ fine[fi]
    return E @ x0, sigma - E @ sigma @ np.swapaxes(E, 1, 2)


def integrate_covariance(spec: ModelSpec, x0, t_end: float, dt: float, steps=None) -> CovariancePath:
    """The zero-noise flow and the fluctuation covariance at the output times k dt.

    The grid is k dt for k = 0 .. N = round(t_end / dt).  With steps (integers
    in [0, N]) only those k are evaluated, and the path answers `at` those
    times only (dense False); each of them carries the same bits as in the
    whole grid.  The cut-off pipeline asks for its window steps this
    way; cov-flow and `stationary_gap` take the whole grid.

    A linear force gets the exact Gaussian path: e^{A k dt} x0 and
    Sigma - e^{A k dt} Sigma e^{A^T k dt}, with e^{A k dt} the product of a
    coarse and a fine table of matrix exponentials (`_linear_path`).  This
    needs Sigma, so a linear force whose A is not Hurwitz raises
    StabilityError from `sigma_matrix` before any work; the cov-flow command
    and `stationary_gap` ask for Sigma anyway.  Any other force co-integrates
    the flow and the covariance ODE with one adaptive solve over [0, N dt]
    (`_ode_path`).  The evaluated covariances are then symmetrized and
    negative eigenvalues (a genuine degeneracy only near t = 0) are clamped
    to zero; those below -1e-10 max(1, lambda_max) are counted in
    clamp_events.
    """
    if dt <= 0 or round(t_end / dt) < 1:
        raise ParameterError(
            f"need dt > 0 and t_end of at least one output step dt; got t_end {t_end:g} and dt {dt:g}"
        )
    x0 = phase_point(spec, x0)
    n_steps = int(round(t_end / dt))
    if steps is None:
        k = np.arange(n_steps + 1)
    else:
        k = np.asarray(steps)
        if k.ndim != 1 or (k.size and not np.issubdtype(k.dtype, np.integer)):
            raise ParameterError("steps must be a list of integer grid steps")
        if k.size and (k.min() < 0 or k.max() > n_steps):
            raise ParameterError(f"steps must lie in [0, {n_steps}]")
        k = np.unique(k.astype(np.int64))
    grid = k * dt
    if spec.force.matrix is not None:
        states, S = _linear_path(spec, x0, k, dt, n_steps)
    else:
        states, S = _ode_path(spec, x0, grid, n_steps * dt)
    S = 0.5 * (S + np.swapaxes(S, 1, 2))
    eigs, vecs = np.linalg.eigh(S)
    clamped = eigs[:, 0] < -1e-10 * np.maximum(1.0, eigs[:, -1])
    neg = eigs[:, 0] < 0
    V = vecs[neg]
    C = (V * np.maximum(eigs[neg], 0.0)[:, None, :]) @ np.swapaxes(V, 1, 2)
    S[neg] = 0.5 * (C + np.swapaxes(C, 1, 2))
    return CovariancePath(grid=grid, covs=S, states=states, clamp_events=int(np.sum(clamped)),
                          dense=steps is None)


def short_time_covariance(spec: ModelSpec, x, t: float) -> np.ndarray:
    """Third-order small-time expansion of the fluctuation covariance.

    Blocks: (t^3/3) I on positions, (t^2/2 - gamma t^3/2) I off-diagonal, and
    (t - gamma t^2 + 2 gamma^2 t^3 / 3) I - (t^3/6)(DF + DF^T) on momenta, with
    the Jacobian evaluated at the position of x.  Documented validity t <= 0.1.
    """
    d = spec.dim
    x = np.asarray(x, dtype=float)
    q = x[:d]
    DF = spec.force.eval_DF(q)
    g = spec.gamma
    I = np.eye(d)
    out = np.zeros((2 * d, 2 * d))
    out[:d, :d] = (t**3 / 3.0) * I
    off = (t**2 / 2.0 - g * t**3 / 2.0) * I
    out[:d, d:] = off
    out[d:, :d] = off
    out[d:, d:] = (t - g * t**2 + (2.0 / 3.0) * g**2 * t**3) * I - (t**3 / 6.0) * (DF + DF.T)
    return out


@dataclass
class StationaryGapReport:
    times: np.ndarray
    gaps: np.ndarray
    fitted_rate: float
    consistent: bool


def stationary_gap(spec: ModelSpec, x0, horizon: float) -> StationaryGapReport:
    """Frobenius gap ||Sigma_t - Sigma||_F along the path with a tail-decay fit.

    The gap is taken at the output times k GAP_DT up to the horizon, and the
    exponential rate is fitted by least squares on its logarithm over the
    second half of the horizon.  A non-decaying tail is reported as
    inconsistent rather than raised.
    """
    sigma = sigma_matrix(spec)
    path = integrate_covariance(spec, x0, horizon, GAP_DT)
    gaps = np.linalg.norm(path.covs - sigma, axis=(1, 2))
    tail = path.grid >= horizon / 2.0
    t_tail = path.grid[tail]
    g_tail = np.maximum(gaps[tail], 1e-300)
    slope, _ = np.polyfit(t_tail, np.log(g_tail), 1)
    fitted_rate = float(-slope)
    consistent = fitted_rate > 0 and gaps[-1] <= gaps[len(gaps) // 2] + 1e-12
    return StationaryGapReport(
        times=path.grid, gaps=gaps, fitted_rate=fitted_rate, consistent=bool(consistent)
    )
