"""Gaussian distributions and total-variation distances between them.

Total variation between Gaussians has a closed form only for equal
covariances; this module provides that exact path, the 3/2 Frobenius-norm
upper bound for equal means, a mixture importance-sampling Monte Carlo
estimator, and a deterministic evaluation for dimension <= 2 that slices the
log-likelihood-ratio region into per-line intervals and integrates exact
conditional normal probabilities.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.integrate import quad
from scipy.special import erf, ndtr

from .errors import MethodError, ParameterError, ReductionError

log = logging.getLogger(__name__)

_SYM_RTOL = 1e-12
_EIG_RTOL = 1e-12


@dataclass(eq=False)
class Gaussian:
    """Immutable mean / covariance pair with a lazily cached factorization."""

    mean: np.ndarray
    cov: np.ndarray
    clamped: bool = False
    regularized: bool = False
    _chol: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        n = self.mean.shape[0]
        if cov.shape != (n, n):
            raise ParameterError(f"covariance shape {cov.shape} does not match mean of size {n}")
        scale = max(1.0, float(np.linalg.norm(cov, "fro")))
        if np.linalg.norm(cov - cov.T, "fro") > _SYM_RTOL * scale * 10:
            raise ParameterError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        eigs, vecs = np.linalg.eigh(cov)
        floor = -_EIG_RTOL * max(np.trace(cov) / n, 1e-300)
        if eigs[0] < floor * 10:
            raise ParameterError(f"covariance has eigenvalue {eigs[0]:.3e} below the clamping floor")
        if eigs[0] < 0:
            eigs = np.maximum(eigs, 0.0)
            cov = (vecs * eigs) @ vecs.T
            cov = 0.5 * (cov + cov.T)
            self.clamped = True
            log.debug("clamped negative covariance eigenvalue to zero")
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def chol(self) -> np.ndarray:
        """Lower Cholesky factor, regularizing near-singular covariances with a logged flag."""
        if self._chol is None:
            cov = self.cov
            try:
                L = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                jitter = 1e-12 * max(np.trace(cov) / self.dim, 1e-300)
                L = np.linalg.cholesky(cov + jitter * np.eye(self.dim))
                object.__setattr__(self, "regularized", True)
                log.debug("regularized covariance with jitter %.3e", jitter)
            object.__setattr__(self, "_chol", L)
        return self._chol

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self.chol().T

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        L = self.chol()
        diff = np.atleast_2d(x) - self.mean
        sol = sla.solve_triangular(L, diff.T, lower=True)
        maha = np.sum(sol * sol, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        return -0.5 * (maha + logdet + self.dim * math.log(2 * math.pi))


def tv_unit(x) -> float:
    """Exact d_TV(N(x, I), N(0, I)) = sqrt(2/pi) int_0^{|x|/2} exp(-s^2/2) ds."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    return float(erf(r / (2.0 * math.sqrt(2.0))))


def tv_unit_linear_bound(x) -> float:
    """Diagnostic linear upper bound |x| / sqrt(2 pi) on tv_unit."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    return r / math.sqrt(2.0 * math.pi)


def _inv_sqrt(S: np.ndarray, name: str) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(S)
    if eigs[0] <= 1e-14 * max(1.0, eigs[-1]):
        raise ReductionError(f"{name} is singular; regularize before reducing")
    return (vecs / np.sqrt(eigs)) @ vecs.T


def tv_reduce(g1: Gaussian, g2: Gaussian):
    """Canonical pair (m, C) with d_TV(g1, g2) = d_TV(N(m, C), N(0, I)).

    Combines the scaling, mean-shift, whitening, and conjugation identities:
    m = T^{-1/2}(x - y) and C = T^{-1/2} S T^{-1/2} for g1 = N(x, S),
    g2 = N(y, T).  Both covariances must be strictly positive definite.
    """
    if g1.dim != g2.dim:
        raise ParameterError("dimension mismatch")
    Tih = _inv_sqrt(g2.cov, "second covariance")
    _ = _inv_sqrt(g1.cov, "first covariance")
    m = Tih @ (g1.mean - g2.mean)
    C = Tih @ g1.cov @ Tih
    return m, 0.5 * (C + C.T)


@dataclass
class TVResult:
    value: float
    kind: str  # "exact" | "upper_bound" | "estimate"
    method: str
    stderr: Optional[float] = None


_COV_EQ_RTOL = 1e-9


def _covs_equal(g1: Gaussian, g2: Gaussian) -> bool:
    scale = np.linalg.norm(g1.cov, "fro") + np.linalg.norm(g2.cov, "fro")
    return np.linalg.norm(g1.cov - g2.cov, "fro") <= _COV_EQ_RTOL * max(scale, 1e-300)


def _interval_union_above_zero(c2: float, c1: float, c0: float):
    """Solution set {z : c2 z^2 + c1 z + c0 > 0} as a list of (lo, hi) intervals."""
    tiny = 1e-300
    if abs(c2) < 1e-14 * (abs(c1) + abs(c0) + 1.0):
        if abs(c1) < tiny:
            return [(-np.inf, np.inf)] if c0 > 0 else []
        r = -c0 / c1
        return [(r, np.inf)] if c1 > 0 else [(-np.inf, r)]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc <= 0:
        return [(-np.inf, np.inf)] if c2 > 0 else []
    sq = math.sqrt(disc)
    r1 = (-c1 - sq) / (2.0 * c2)
    r2 = (-c1 + sq) / (2.0 * c2)
    lo, hi = min(r1, r2), max(r1, r2)
    if c2 > 0:
        return [(-np.inf, lo), (hi, np.inf)]
    return [(lo, hi)]


def _normal_prob_intervals(mean: float, var: float, intervals) -> float:
    sd = math.sqrt(max(var, 1e-300))
    total = 0.0
    for lo, hi in intervals:
        total += ndtr((hi - mean) / sd) - ndtr((lo - mean) / sd)
    return float(min(max(total, 0.0), 1.0))


def _loglr_coefficients(g1: Gaussian, g2: Gaussian):
    """Quadratic form of log(phi1 / phi2): returns (Q, l, c0)."""
    S1i = np.linalg.inv(g1.cov)
    S2i = np.linalg.inv(g2.cov)
    Q = S2i - S1i
    l = S1i @ g1.mean - S2i @ g2.mean
    _, ld1 = np.linalg.slogdet(g1.cov)
    _, ld2 = np.linalg.slogdet(g2.cov)
    c0 = 0.5 * (g2.mean @ S2i @ g2.mean - g1.mean @ S1i @ g1.mean) + 0.5 * (ld2 - ld1)
    return Q, l, float(c0)


def _tv_cdf_1d(g1: Gaussian, g2: Gaussian) -> float:
    Q, l, c0 = _loglr_coefficients(g1, g2)
    iv = _interval_union_above_zero(0.5 * float(Q[0, 0]), float(l[0]), c0)
    p1 = _normal_prob_intervals(float(g1.mean[0]), float(g1.cov[0, 0]), iv)
    p2 = _normal_prob_intervals(float(g2.mean[0]), float(g2.cov[0, 0]), iv)
    return max(p1 - p2, 0.0)


def _tv_cdf_2d(g1: Gaussian, g2: Gaussian) -> float:
    """TV as P1(loglr > 0) - P2(loglr > 0), slicing the region along lines.

    For fixed second coordinate y the region is a union of at most two
    intervals in the first coordinate, whose conditional normal probability is
    exact; the outer integral over y is one-dimensional adaptive quadrature.
    """
    Q, l, c0 = _loglr_coefficients(g1, g2)

    params = []
    for g in (g1, g2):
        m, S = g.mean, g.cov
        my, vy = float(m[1]), float(S[1, 1])
        slope = float(S[0, 1] / S[1, 1])
        vcond = float(S[0, 0] - S[0, 1] ** 2 / S[1, 1])
        params.append((my, vy, float(m[0]), slope, max(vcond, 1e-300)))

    c2 = 0.5 * float(Q[0, 0])

    def integrand(y: float) -> float:
        c1 = float(Q[0, 1]) * y + float(l[0])
        cc0 = 0.5 * float(Q[1, 1]) * y * y + float(l[1]) * y + c0
        iv = _interval_union_above_zero(c2, c1, cc0)
        out = 0.0
        for sign, (my, vy, mx, slope, vcond) in zip((1.0, -1.0), params):
            dens = math.exp(-0.5 * (y - my) ** 2 / vy) / math.sqrt(2 * math.pi * vy)
            if dens > 0.0:
                mcond = mx + slope * (y - my)
                out += sign * dens * _normal_prob_intervals(mcond, vcond, iv)
        return out

    lo = min(g.mean[1] - 12.0 * math.sqrt(g.cov[1, 1]) for g in (g1, g2))
    hi = max(g.mean[1] + 12.0 * math.sqrt(g.cov[1, 1]) for g in (g1, g2))
    mid_points = sorted({float(g1.mean[1]), float(g2.mean[1])})
    val = quad(
        integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=800, points=mid_points, full_output=1
    )[0]
    return float(min(max(val, 0.0), 1.0))


def _tv_monte_carlo(g1: Gaussian, g2: Gaussian, n: int, seed: int):
    rng = np.random.default_rng(seed)
    n1 = n // 2
    x = np.vstack([g1.sample(n1, rng), g2.sample(n - n1, rng)])
    a = g1.logpdf(x)
    b = g2.logpdf(x)
    r = np.abs(np.tanh(0.5 * (a - b)))
    return float(np.mean(r)), float(np.std(r, ddof=1) / math.sqrt(n))


def tv_gaussian(
    g1: Gaussian,
    g2: Gaussian,
    method: str = "exact_if_reducible",
    n: int = 200_000,
    seed: int = 0,
) -> TVResult:
    """Total variation distance between two Gaussians.

    Methods:
      - "exact_if_reducible": exact via the error-function identity; applies
        only when the covariances agree (within relative 1e-9).
      - "frobenius_bound": (3/2) ||T^{-1/2} S T^{-1/2} - I||_F, valid for a
        common mean; returned as an upper bound.
      - "monte_carlo": mixture importance sampling of int |phi1 - phi2| / 2
        with n points and a deterministic seed; returns value and stderr.
      - "cdf_quadrature": deterministic evaluation through the CDF of the
        log-likelihood-ratio level set; dimension <= 2; accurate to roughly
        1e-10 and reported with kind "exact".
    """
    if g1.dim != g2.dim:
        raise ParameterError("dimension mismatch")
    if method == "exact_if_reducible":
        if not _covs_equal(g1, g2):
            raise MethodError("exact evaluation needs equal covariances; use another method")
        m, _ = tv_reduce(g1, g2)
        return TVResult(value=tv_unit(m), kind="exact", method=method)
    if method == "frobenius_bound":
        scale = 1.0 + float(np.linalg.norm(g1.mean) + np.linalg.norm(g2.mean))
        if np.linalg.norm(g1.mean - g2.mean) > 1e-9 * scale:
            raise MethodError("the Frobenius bound applies to a common mean")
        _, C = tv_reduce(g1, g2)
        return TVResult(
            value=1.5 * float(np.linalg.norm(C - np.eye(g1.dim), "fro")),
            kind="upper_bound",
            method=method,
        )
    if method == "monte_carlo":
        value, stderr = _tv_monte_carlo(g1, g2, n, seed)
        return TVResult(value=value, kind="estimate", method=method, stderr=stderr)
    if method == "cdf_quadrature":
        if _covs_equal(g1, g2):
            m, _ = tv_reduce(g1, g2)
            return TVResult(value=tv_unit(m), kind="exact", method=method)
        if g1.dim == 1:
            return TVResult(value=_tv_cdf_1d(g1, g2), kind="exact", method=method)
        if g1.dim == 2:
            return TVResult(value=_tv_cdf_2d(g1, g2), kind="exact", method=method)
        raise MethodError("cdf_quadrature supports dimension <= 2; use monte_carlo")
    raise MethodError(f"unknown method {method!r}")
