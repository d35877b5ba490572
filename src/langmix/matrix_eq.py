"""Stable Lyapunov equations with degenerate right-hand sides.

Solves U X + X U^T = -W for a Hurwitz U, the form of the stationary
covariance equation A Sigma + Sigma A^T = -J; the drift metric's
A^T Gamma + Gamma A = -I is the same equation for U = A^T.  Certifies
positive definiteness of the solution when the forcing W dominates the
momentum block and the upper-right block of U is invertible.  Derives from a
model the stationary fluctuation covariance Sigma, its whitening Sigma^{-1/2},
the drift metric, and the drift-metric radius.
"""

from __future__ import annotations

import logging
import math
import threading
import warnings
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .errors import (
    CertificationUnavailableWarning,
    DegenerateModelError,
    ParameterError,
    StabilityError,
)
from .model import ModelSpec, drift_matrix, noise_matrix, sample_ball

log = logging.getLogger(__name__)

_STABILITY_BAND = 1e-10


def _check_square(U, name):
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ParameterError(f"{name} must be square, got shape {U.shape}")
    return U


@dataclass
class LyapunovSolution:
    X: np.ndarray
    residual_fro: float
    min_eig: float
    certified_pd: bool = False


def _momentum_forcing_floor(W: np.ndarray) -> float:
    """Largest a >= 0 with x.Wx >= a |p|^2, p the second half of x (0 if none).

    For W >= 0 this is the smallest eigenvalue of the Schur complement
    W22 - W12^T W11^+ W12 of the position block; values inside the
    positive-semidefiniteness tolerance count as 0.
    """
    n = W.shape[0]
    if n % 2 != 0:
        return 0.0
    d = n // 2
    W12 = W[:d, d:]
    schur = W[d:, d:] - W12.T @ np.linalg.pinv(W[:d, :d], hermitian=True) @ W12
    floor = float(np.min(np.linalg.eigvalsh(schur)))
    return floor if floor > 1e-12 * max(1.0, float(np.trace(W))) else 0.0


def solve_lyapunov_stable(U, W) -> LyapunovSolution:
    """Unique solution X of U X + X U^T = -W, symmetrized on output.

    Solved by Bartels-Stewart (LAPACK trsyl via scipy).  All eigenvalues of U
    must have strictly negative real part (a real part inside the tolerance
    band raises).  W must be symmetric positive semi-definite.  Positive
    definiteness is certified from the structure (a positive definite W, or a
    momentum-block forcing floor a > 0 together with an invertible
    upper-right block of U); if the block is singular a warning is emitted
    and the solution is still returned.
    """
    U = _check_square(U, "U")
    W = _check_square(W, "W")
    if U.shape != W.shape:
        raise ParameterError("U and W must have matching shapes")
    if np.linalg.norm(W - W.T, "fro") > 1e-10 * max(1.0, np.linalg.norm(W, "fro")):
        raise ParameterError("W must be symmetric")
    W = 0.5 * (W + W.T)
    w_min, w_scale = float(np.min(np.linalg.eigvalsh(W))), max(1.0, float(np.trace(W)))
    if w_min < -1e-10 * w_scale:
        raise ParameterError("W must be positive semi-definite")

    eigs = np.linalg.eigvals(U)
    band = _STABILITY_BAND * max(1.0, np.linalg.norm(U, 2))
    if np.any(eigs.real >= -band):
        raise StabilityError(
            f"U is not (strictly) stable: max Re eigenvalue {np.max(eigs.real):.3e}"
        )

    X = sla.solve_continuous_lyapunov(U, -W)
    X = 0.5 * (X + X.T)

    residual_fro = float(np.linalg.norm(U @ X + X @ U.T + W, "fro"))
    min_eig = float(np.min(np.linalg.eigvalsh(X)))

    certified = False
    if w_min > 1e-12 * w_scale:
        # strictly positive definite forcing certifies directly
        certified = min_eig > 0
    elif _momentum_forcing_floor(W) > 0:
        n = U.shape[0]
        d = n // 2
        # the block that carries the momentum forcing into the positions
        sv = np.linalg.svd(U[:d, n - d :], compute_uv=False)
        if sv[-1] > 1e-12 * max(1.0, sv[0]):
            certified = min_eig > 0
        else:
            warnings.warn(
                "upper-right block of U is singular; positive definiteness cannot be certified",
                CertificationUnavailableWarning,
            )
    return LyapunovSolution(
        X=X,
        residual_fro=residual_fro,
        min_eig=min_eig,
        certified_pd=certified,
    )


def lyapunov_quadrature(U, W, T: float, n_intervals: Optional[int] = None) -> np.ndarray:
    """Truncated integral representation of the solution of U X + X U^T = -W.

    Computes int_0^T e^{U t} W e^{U^T t} dt by composite 8-node
    Gauss-Legendre, accumulating the interval propagators from a single
    matrix exponential per interval width.  Serves as an independent
    cross-check of the algebraic solver.
    """
    V = _check_square(U, "U").T  # G = e^{V t} below, so G^T W G = e^{U t} W e^{U^T t}
    W = _check_square(W, "W")
    if n_intervals is None:
        eigs = np.linalg.eigvals(V)
        rho = float(np.max(np.abs(eigs)))
        n_intervals = int(max(128, min(40000, math.ceil(3.0 * T * max(1.0, rho)))))
    h = T / n_intervals
    nodes, weights = np.polynomial.legendre.leggauss(8)
    # Map from [-1, 1] to [0, h].
    offs = 0.5 * h * (nodes + 1.0)
    w = 0.5 * h * weights
    E_off = [sla.expm(V * t) for t in offs]
    E_h = sla.expm(V * h)
    P = np.eye(V.shape[0])
    acc = np.zeros_like(W)
    for _ in range(n_intervals):
        for Ej, wj in zip(E_off, w):
            G = P @ Ej
            acc += wj * (G.T @ W @ G)
        P = P @ E_h
    return 0.5 * (acc + acc.T)


@dataclass
class DriftMetric:
    """Contraction metric Gamma with its norm-equivalence constant xi."""

    gamma_matrix: np.ndarray
    xi: float
    solution: LyapunovSolution


def gamma_matrix(A) -> DriftMetric:
    """Solve A^T Gamma + Gamma A = -I, the Lyapunov equation for U = A^T, and
    report the tightest xi with xi |x|^2 <= <x, Gamma x> <= |x|^2 / xi."""
    A = _check_square(A, "A")
    sol = solve_lyapunov_stable(A.T, np.eye(A.shape[0]))
    eigs = np.linalg.eigvalsh(sol.X)
    xi = float(min(eigs[0], 1.0 / eigs[-1]))
    return DriftMetric(gamma_matrix=sol.X, xi=xi, solution=sol)


_cache_lock = threading.Lock()
_spec_cache: "weakref.WeakKeyDictionary[ModelSpec, dict]" = weakref.WeakKeyDictionary()


def _cached(spec: ModelSpec, key: str, compute):
    """compute(spec), computed once per spec and then returned from the cache.

    The computation runs outside the lock, so it may read other cached values.
    """
    with _cache_lock:
        entry = _spec_cache.setdefault(spec, {})
        if key in entry:
            return entry[key]
    value = compute(spec)
    with _cache_lock:
        entry[key] = value
    return value


def _solve_sigma(spec: ModelSpec) -> LyapunovSolution:
    d = spec.dim
    return solve_lyapunov_stable(drift_matrix(spec, np.zeros(d)), noise_matrix(d))


def sigma_solution(spec: ModelSpec) -> LyapunovSolution:
    """The Lyapunov solution behind sigma_matrix, with its residual and certificate.

    A model whose A is not Hurwitz raises StabilityError.  That covers an
    eigenvalue m of DF(0) with Re m <= 0: mu^2 + gamma mu + m = 0 then has a
    root with Re mu >= 0, and it is an eigenvalue of A.
    """
    return _cached(spec, "sigma", _solve_sigma)


def sigma_matrix(spec: ModelSpec) -> np.ndarray:
    """Stationary fluctuation covariance: the unique SPD solution of
    A Sigma + Sigma A^T = -J with A the linearization at the origin."""
    return sigma_solution(spec).X


def inv_sqrt(S: np.ndarray, name: str) -> np.ndarray:
    """S^{-1/2} of a symmetric positive definite S; raises LinAlgError, naming S, if it is singular."""
    eigs, vecs = np.linalg.eigh(S)
    if eigs[0] <= 1e-14 * max(1.0, eigs[-1]):
        raise np.linalg.LinAlgError(f"{name} is singular")
    return (vecs / np.sqrt(eigs)) @ vecs.T


def sigma_inv_sqrt(spec: ModelSpec) -> np.ndarray:
    """Sigma^{-1/2}, the whitening of the stationary fluctuation covariance."""
    return _cached(spec, "sigma_inv_sqrt", lambda s: inv_sqrt(sigma_matrix(s), "Sigma"))


def drift_metric(spec: ModelSpec) -> DriftMetric:
    return _cached(spec, "drift_metric", lambda s: gamma_matrix(drift_matrix(s, np.zeros(s.dim))))


_DELTA_CAP = 1.0
_DELTA_FLOOR = 1e-8
_DELTA_DIRECTIONS = 64
_SPOT_CHECKS = 16


def drift_metric_delta(spec: ModelSpec) -> float:
    """Largest sampled radius on which the linearization error stays metric-small.

    Finds by bisection the largest delta <= 1 such that, over sampled
    directions |q| = delta, the symmetrized perturbation
    (A(q) - A)^T Gamma + Gamma (A(q) - A) has operator norm at most 1/2.  The
    result is cached per spec.  Failure even at 1e-8 raises.
    """
    return _cached(spec, "delta", _drift_metric_delta)


def _drift_metric_delta(spec: ModelSpec) -> float:
    dm = drift_metric(spec)
    G = dm.gamma_matrix
    d = spec.dim
    A0 = drift_matrix(spec, np.zeros(d))
    dirs = sample_ball(d, 1.0, _DELTA_DIRECTIONS + 1)[1:]
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = dirs / np.maximum(norms, 1e-300)

    def worst(delta: float) -> float:
        D = drift_matrix(spec, delta * dirs) - A0
        S = np.swapaxes(D, 1, 2) @ G + G @ D
        return float(np.max(np.linalg.norm(S, 2, axis=(1, 2))))

    if worst(_DELTA_CAP) <= 0.5:
        delta = _DELTA_CAP
    elif worst(_DELTA_FLOOR) > 0.5:
        raise DegenerateModelError(
            "the drift-metric condition fails even at radius 1e-8; "
            "the Jacobian is too irregular near the origin"
        )
    else:
        lo, hi = _DELTA_FLOOR, _DELTA_CAP
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if worst(mid) <= 0.5:
                lo = mid
            else:
                hi = mid
        delta = lo

    _spot_check_drift(spec, delta, dm)
    return delta


def _spot_check_drift(spec: ModelSpec, delta: float, dm: DriftMetric):
    """Spot-verify 2 <y, Gamma A(q) y> <= -(xi/2) <y, Gamma y> at |q| = delta."""
    rng = np.random.default_rng(7)
    G, xi = dm.gamma_matrix, dm.xi
    for _ in range(_SPOT_CHECKS):
        u = rng.standard_normal(spec.dim)
        u *= delta / np.linalg.norm(u)
        Aq = drift_matrix(spec, u)
        y = rng.standard_normal(2 * spec.dim)
        lhs = 2.0 * float(y @ (G @ (Aq @ y)))
        rhs = -(xi / 2.0) * float(y @ (G @ y))
        if lhs > rhs + 1e-9 * (1.0 + abs(rhs)):
            log.warning(
                "drift inequality spot check failed at delta=%.3e: lhs=%.6g rhs=%.6g",
                delta,
                lhs,
                rhs,
            )
            return
