"""Fluctuation covariance along the zero-noise path.

The Gaussian fluctuation around the deterministic flow has covariance
Sigma_t solving dSigma/dt = J + A_t Sigma + Sigma A_t^T with Sigma_0 = 0,
where A_t = A(q_t) is the position-dependent linearization.  This module
co-integrates the flow and that matrix ODE, provides the third-order
short-time expansion, and quantifies the exponential approach to the
stationary covariance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ParameterError
from .linear_stability import BLOWUP, _flow_rhs, rk4_step
from .matrix_eq import sigma_matrix
from .model import ModelSpec, drift_matrix, noise_matrix

log = logging.getLogger(__name__)


@dataclass
class CovariancePath:
    grid: np.ndarray
    covs: np.ndarray  # (n_times, 2d, 2d)
    states: np.ndarray  # (n_times, 2d) zero-noise path
    base_point: np.ndarray
    clamp_events: int = 0

    def at(self, t: float):
        """Linear interpolation of (state, covariance) at time t within the grid."""
        g = self.grid
        if t < g[0] - 1e-12 or t > g[-1] + 1e-12:
            raise ParameterError(f"time {t} outside the integrated range [{g[0]}, {g[-1]}]")
        i = int(np.clip(np.searchsorted(g, t) - 1, 0, len(g) - 2))
        w = (t - g[i]) / (g[i + 1] - g[i])
        x = (1 - w) * self.states[i] + w * self.states[i + 1]
        c = (1 - w) * self.covs[i] + w * self.covs[i + 1]
        return x, c


def integrate_covariance(
    spec: ModelSpec, x0, t_end: float, dt: float, store_every: int = 1
) -> CovariancePath:
    """Co-integrate the zero-noise flow and the covariance ODE with one RK4 stepper.

    The covariance is symmetrized every step; negative eigenvalues (a genuine
    degeneracy only near t = 0) are clamped to zero and counted.
    """
    if dt <= 0 or t_end < 0:
        raise ParameterError("need dt > 0 and t_end >= 0")
    d = spec.dim
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2 * d,):
        raise ParameterError(f"x0 must have shape ({2 * d},)")
    J = noise_matrix(d)
    n = 2 * d

    def rhs(y):
        x = y[:n]
        S = y[n:].reshape(n, n)
        A = drift_matrix(spec, x[:d])
        dS = J + A @ S + S @ A.T
        return np.concatenate([_flow_rhs(spec.force, spec.gamma, x), dS.ravel()])

    y = np.concatenate([x0, np.zeros(n * n)])
    n_steps = int(round(t_end / dt))
    grid = [0.0]
    states = [x0.copy()]
    covs = [np.zeros((n, n))]
    clamp_events = 0
    for k in range(1, n_steps + 1):
        y = rk4_step(rhs, y, dt)
        if not np.all(np.isfinite(y)) or np.linalg.norm(y[:n]) > BLOWUP:
            raise DivergenceError("zero-noise flow diverged", t=k * dt, last_state=states[-1])
        S = y[n:].reshape(n, n)
        S = 0.5 * (S + S.T)
        eigs, vecs = np.linalg.eigh(S)
        if eigs[0] < 0:
            if eigs[0] < -1e-10 * max(1.0, eigs[-1]):
                clamp_events += 1
                log.debug("clamped covariance eigenvalue %.3e at t=%.4f", eigs[0], k * dt)
            S = (vecs * np.maximum(eigs, 0.0)) @ vecs.T
            S = 0.5 * (S + S.T)
        y[n:] = S.ravel()
        if k % store_every == 0:
            grid.append(k * dt)
            states.append(y[:n].copy())
            covs.append(S.copy())
    return CovariancePath(
        grid=np.asarray(grid),
        covs=np.asarray(covs),
        states=np.asarray(states),
        base_point=x0.copy(),
        clamp_events=clamp_events,
    )


def short_time_covariance(spec: ModelSpec, x, t: float) -> np.ndarray:
    """Third-order small-time expansion of the fluctuation covariance.

    Blocks: (t^3/3) I on positions, (t^2/2 - gamma t^3/2) I off-diagonal, and
    (t - gamma t^2 + 2 gamma^2 t^3 / 3) I - (t^3/6)(DF + DF^T) on momenta, with
    the Jacobian evaluated at the position of x.  Documented validity t <= 0.1.
    """
    d = spec.dim
    x = np.asarray(x, dtype=float)
    q = x[:d]
    DF = np.asarray(spec.force.eval_DF(q), dtype=float).reshape(d, d)
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


def stationary_gap(spec: ModelSpec, x0, horizon: float, dt: float = 0.01) -> StationaryGapReport:
    """Frobenius gap ||Sigma_t - Sigma||_F along the path with a tail-decay fit.

    The exponential rate is fitted by least squares on the logarithm of the
    gap over the second half of the horizon.  A non-decaying tail is reported
    as inconsistent rather than raised.
    """
    sigma = sigma_matrix(spec)
    path = integrate_covariance(spec, x0, horizon, dt)
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
