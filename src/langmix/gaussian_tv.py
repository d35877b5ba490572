"""Gaussian distributions and total-variation distances between them.

`tv_gaussian` reduces a pair once, by `_whiten`, to N(nu, diag(lam)) against
N(0, I), and reads one exact method and one bound from it.  The exact method
is deterministic in every dimension: the equal-covariance closed form when
the whitened gap 1.5 ||lam - 1||_2 is within TV_TOL, 1.0 when the pair's
Bhattacharyya coefficient is (so 1 - TV_TOL <= d_TV), the closed form in 1-D,
slices of the log-likelihood-ratio region into per-line intervals with exact
conditional normal probabilities in 2-D, and in dimension >= 3 one Gil-Pelaez
inversion of its characteristic functions, exact to TV_TOL.  The bound is
the whitened gap, the 3/2 Frobenius-norm upper bound for equal means.
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

from .errors import MethodError, ParameterError

log = logging.getLogger(__name__)

_SYM_RTOL = 1e-12
_EIG_RTOL = 1e-12


@dataclass(eq=False)
class Gaussian:
    """Mean / covariance pair; `clamped` and `regularized` record repairs of the covariance, not inputs."""

    mean: np.ndarray
    cov: np.ndarray
    clamped: bool = field(default=False, init=False)
    regularized: bool = field(default=False, init=False)

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
        try:
            return np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            jitter = 1e-12 * max(np.trace(self.cov) / self.dim, 1e-300)
            self.regularized = True
            log.debug("regularized covariance with jitter %.3e", jitter)
            return np.linalg.cholesky(self.cov + jitter * np.eye(self.dim))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self.chol().T


def tv_unit(x) -> float:
    """Exact d_TV(N(x, I), N(0, I)) = sqrt(2/pi) int_0^{|x|/2} exp(-s^2/2) ds."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    return float(erf(r / (2.0 * math.sqrt(2.0))))


def tv_unit_linear_bound(x) -> float:
    """Diagnostic linear upper bound |x| / sqrt(2 pi) on tv_unit."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    return r / math.sqrt(2.0 * math.pi)


@dataclass
class TVResult:
    value: float
    kind: str  # "exact" | "upper_bound" | "estimate"
    abserr: Optional[float] = None  # quadrature error estimate; 0.0 for a closed form


#: absolute tolerance of every value that cdf_quadrature reports as "exact"
TV_TOL = 1e-9
#: Gauss-Legendre rule on each head panel of the Gil-Pelaez integral, and the
#: coarser rule whose gap to it is the head's error estimate
_GL_FINE = np.polynomial.legendre.leggauss(16)
_GL_COARSE = np.polynomial.legendre.leggauss(8)
#: change of phase plus log-modulus, in radians, that one head panel spans
_PANEL_SPAN = 2.0
#: head panels before the oscillatory tail is left to QAWF
_MAX_PANELS = 400
#: envelope grid in units of the log-likelihood ratio's standard deviation,
#: and the points of it tried first
_ENVELOPE_GRID = np.exp2(np.arange(-32, 385) / 4.0)
_ENVELOPE_FIRST = 81
#: below this log-modulus a characteristic function cannot move the integral
_LOG_CF_FLOOR = math.log(1e-17)
#: QAWF starts only where omega U spans this many radians
_QAWF_MIN_PHASE = 20.0 * math.pi


def _interval_union_above_zero(c2: float, c1: float, c0: float):
    """Solution set {z : c2 z^2 + c1 z + c0 > 0} as (lo, hi, outside), or None when empty.

    The set is the interval (lo, hi), or its complement when outside is True;
    lo and hi may be infinite.
    """
    if abs(c2) < 1e-14 * (abs(c1) + abs(c0) + 1.0):
        if abs(c1) < 1e-300:
            return (-math.inf, math.inf, False) if c0 > 0 else None
        r = -c0 / c1
        return (r, math.inf, False) if c1 > 0 else (-math.inf, r, False)
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc <= 0:
        return (-math.inf, math.inf, False) if c2 > 0 else None
    sq = math.sqrt(disc)
    r1 = (-c1 - sq) / (2.0 * c2)
    r2 = (-c1 + sq) / (2.0 * c2)
    return min(r1, r2), max(r1, r2), c2 > 0


def _normal_prob_intervals(mean: float, sd: float, iv) -> float:
    """N(mean, sd^2) mass of the set iv of `_interval_union_above_zero`.

    ndtr is called only at finite endpoints: it is exactly 0 and 1 at -inf and inf.
    """
    if iv is None:
        return 0.0
    lo, hi, outside = iv
    below = 0.0 if lo == -math.inf else ndtr((lo - mean) / sd)
    above = 1.0 if hi == math.inf else ndtr((hi - mean) / sd)
    total = below + (1.0 - above) if outside else above - below
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


def _tv_cdf_1d(A, B, C) -> float:
    """Closed-form TV in 1-D: P_k is the N(0, 1) mass of {xi : A_k xi^2 + B_k xi + C_k > 0}."""
    p1, p2 = (_normal_prob_intervals(0.0, 1.0, _interval_union_above_zero(a, b, c))
              for a, b, c in zip(A[:, 0], B[:, 0], C[:, 0]))
    return max(p1 - p2, 0.0)


def _tv_cdf_2d(g1: Gaussian, g2: Gaussian):
    """TV as P1(loglr > 0) - P2(loglr > 0), slicing the region along lines.

    For fixed second coordinate y the region is a union of at most two
    intervals in the first coordinate, whose conditional normal probability is
    exact; the outer integral over y is one-dimensional adaptive quadrature,
    whose error estimate is returned with the value.  The integrand's
    per-pair constants are taken once.
    """
    Q, l, c0 = _loglr_coefficients(g1, g2)

    params = []
    for sign, g in zip((1.0, -1.0), (g1, g2)):
        m, S = g.mean, g.cov
        my, vy = float(m[1]), float(S[1, 1])
        slope = float(S[0, 1] / S[1, 1])
        vcond = max(float(S[0, 0] - S[0, 1] ** 2 / S[1, 1]), 1e-300)
        params.append((sign, my, vy, math.sqrt(2 * math.pi * vy), float(m[0]), slope, math.sqrt(vcond)))

    c2 = 0.5 * float(Q[0, 0])
    q01, q11h, l0, l1 = float(Q[0, 1]), 0.5 * float(Q[1, 1]), float(l[0]), float(l[1])

    def integrand(y: float) -> float:
        iv = _interval_union_above_zero(c2, q01 * y + l0, q11h * y * y + l1 * y + c0)
        if iv is None:
            return 0.0
        out = 0.0
        for sign, my, vy, norm, mx, slope, sd in params:
            dens = math.exp(-0.5 * (y - my) ** 2 / vy) / norm
            if dens > 0.0:
                out += sign * dens * _normal_prob_intervals(mx + slope * (y - my), sd, iv)
        return out

    lo = min(g.mean[1] - 12.0 * math.sqrt(g.cov[1, 1]) for g in (g1, g2))
    hi = max(g.mean[1] + 12.0 * math.sqrt(g.cov[1, 1]) for g in (g1, g2))
    mid_points = sorted({float(g1.mean[1]), float(g2.mean[1])})
    val, abserr = quad(
        integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=800, points=mid_points, full_output=1
    )[:2]
    return float(min(max(val, 0.0), 1.0)), float(abserr)


def _whiten(g1: Gaussian, g2: Gaussian):
    """(lam, nu) with d_TV(g1, g2) = d_TV(N(nu, diag(lam)), N(0, I)); a singular pair raises LinAlgError.

    Whitening by g2's Cholesky factor L, then rotating to the eigenbasis of L^{-1} S1 L^{-T},
    leaves its ascending eigenvalues lam and the rotated mean nu.
    """
    # L^{-1} from LAPACK trtri: scipy's triangular solve wakes a second BLAS
    # thread even for 4 x 4 blocks, which then spins for the rest of the run
    Li = sla.lapack.dtrtri(np.linalg.cholesky(g2.cov), lower=1)[0]
    mu = Li @ (g1.mean - g2.mean)
    K = Li @ g1.cov @ Li.T
    lam, V = np.linalg.eigh(0.5 * (K + K.T))
    if lam[0] <= 0.0:
        raise np.linalg.LinAlgError("first covariance is singular")
    return lam, V.T @ mu


def _llr_terms(lam: np.ndarray, nu: np.ndarray):
    """Rows (under g1, under g2) of A, B, C with log(p1/p2) = sum_j A_j xi_j^2 + B_j xi_j + C_j.

    In the coordinates of `_whiten` the xi_j are independent standard normals under either Gaussian.
    """
    half_logdet = 0.5 * np.log(lam)
    A = np.array([0.5 * (lam - 1.0), 0.5 * (1.0 - 1.0 / lam)])
    B = np.array([nu * np.sqrt(lam), nu / lam])
    C = np.array([0.5 * nu**2 - half_logdet, -0.5 * nu**2 / lam - half_logdet])
    return A, B, C


def _log_cf(u: np.ndarray, A, B, C):
    """Log-modulus and phase of phi_k(u) under each row k; each of shape (2, len(u)).

    The factor of one direction is (1 - 2iuA)^(-1/2) exp(-u^2 B^2 / (2 (1 - 2iuA))) e^(iuC),
    whose modulus and phase are real expressions in q = 1 + 4 u^2 A^2.  The
    terms are laid out (row, direction, node), so each sum over directions
    adds whole rows of nodes, in direction order.
    """
    # every temporary is written in place: the sums are cheap, the elementwise terms are the cost
    a, b2 = A[:, :, None], B[:, :, None] ** 2
    ua = u * a
    q = np.square(ua)
    q *= 4.0
    q += 1.0
    terms = np.log(q)
    terms *= 0.25
    ratio = np.multiply(0.5 * u**2, b2)
    ratio /= q
    terms += ratio
    log_modulus = -terms.sum(axis=1)
    ua *= 2.0  # 2 u A, exactly
    phase_terms = np.arctan(ua, out=ua)
    phase_terms *= 0.5
    np.multiply(u**3, b2, out=ratio)
    ratio *= a
    ratio /= q
    phase_terms -= ratio
    phase = phase_terms.sum(axis=1)
    phase += u * C.sum(axis=1)[:, None]
    return log_modulus, phase


def _log_cf_speed(u: np.ndarray, A, B, C) -> np.ndarray:
    """|d/du log-modulus| + |d/du phase| of phi_k(u): how fast the integrand turns; shape (2, len(u))."""
    a, b2 = A[:, :, None], B[:, :, None] ** 2
    q = 1.0 + 4.0 * (u * a) ** 2
    d_modulus = (2.0 * u * a**2 / q + u * b2 / q**2).sum(axis=1)
    d_phase = (a / q - b2 * a * u**2 * (2.0 + q) / q**2).sum(axis=1) + C.sum(axis=1)[:, None]
    return d_modulus + np.abs(d_phase)


def _tail_bound(u: np.ndarray, A, log_modulus: np.ndarray) -> np.ndarray:
    """Rigorous bound on int_u^inf (|phi_1| + |phi_2|)(s) / s ds at every u.

    For s >= u each factor's modulus is nonincreasing, and for any m of the
    directions with A_j != 0, (1 + 4 s^2 A_j^2)^(-1/4) <= (1 + 4 u^2 A_j^2)^(-1/4)
    (u/s)^(1/2) (1 + 1/(4 u^2 A_j^2))^(1/4); integrating (u/s)^(m/2) / s gives
    2/m.  The m largest |A_j| give the smallest factor for each m.
    """
    a = -np.sort(-np.abs(A), axis=1)[:, :, None]  # (2, d, 1), largest first; zeros last
    m = np.arange(1, A.shape[1] + 1)[:, None]
    with np.errstate(divide="ignore"):
        log_factors = 0.25 * np.log1p(1.0 / (4.0 * u**2 * a**2))
    # the product over m factors in log space: at d = 128 it overflows as a cumprod
    best = np.exp(np.min(np.cumsum(log_factors, axis=1) + np.log(2.0 / m), axis=1))
    return np.sum(np.exp(log_modulus) * best, axis=0)


def _oscillatory_tail(U: float, A, B, C):
    """int_U^inf Im[phi_1 - phi_2](u) / u du by QUADPACK QAWF, or None where it cannot.

    A direction is past its turn-over when U |A_j| >= 1 in both rows; there
    its factor is (1 - 2iuA)^(-1/2) exp(iu B^2 / (4 A (1 - 2iuA))) e^(iu (C - B^2 / (4A))),
    whose first two parts vary slowly.  So phi_k(u) = g_k(u) exp(i u omega)
    with omega = sum C - sum_past B^2 / (4 A) of the first row, and QAWF
    integrates g_k(u) / u against sin and cos of omega u.  The other
    directions keep their exact factor inside g_k: they are still damped or
    turn slowly.  QAWF needs omega U to span many cycles (for small omega U
    it returns a wrong value with a small error estimate), and a clean exit.
    """
    past = U * np.min(np.abs(A), axis=0) >= 1.0
    a = np.where(past, A, 1.0)
    b2 = B**2
    c_eff = C.sum(axis=1) - np.sum(np.where(past, b2 / (4.0 * a), 0.0), axis=1)
    omega = float(c_eff[0])
    if abs(omega) * U < _QAWF_MIN_PHASE:
        return None
    shift = c_eff - omega

    def slow(u):
        w = 1.0 - 2j * u * A
        terms = -0.5 * np.log(w) + np.where(past, 1j * u * b2 / (4.0 * a * w), -u * u * b2 / (2.0 * w))
        g = np.exp(terms.sum(axis=1) + 1j * u * shift)
        return (g[0] - g[1]) / u

    value, err = 0.0, 0.0
    for part, weight in ((lambda u: slow(u).real, "sin"), (lambda u: slow(u).imag, "cos")):
        out = quad(part, U, np.inf, weight=weight, wvar=omega, epsabs=TV_TOL / 4.0, full_output=1)
        if len(out) > 3:  # QUADPACK reported a failure
            return None
        value, err = value + out[0], err + out[1]
    return value, err


def _tv_gil_pelaez(A, B, C):
    """TV and an absolute error bound from one Gil-Pelaez integral of the `_llr_terms` rows, in any dimension.

    With phi_k the characteristic function of log(p1/p2) under g_k,
    d_TV = P_1(LLR > 0) - P_2(LLR > 0) = (1/pi) int_0^inf Im[phi_1 - phi_2](u) / u du
    (Imhof 1961; Davies 1980).  The head [0, U] is one vectorized composite
    Gauss-Legendre sum on panels sized to the local speed of the phase and
    modulus; its error estimate is the gap to a coarser rule on the same
    panels.  U is the first envelope-grid point whose rigorous tail bound is
    below the tolerance; when the head would need more than _MAX_PANELS panels
    first, it stops there and QAWF integrates the oscillatory tail.
    """
    scale = math.sqrt(float(np.max(np.sum(2.0 * A**2 + B**2, axis=1))))  # sd of the LLR
    full = np.concatenate([[0.0], _ENVELOPE_GRID / scale])
    for size in (_ENVELOPE_FIRST, len(full)):  # the full grid only when its start does not settle U
        grid = full[:size]
        log_modulus = _log_cf(grid, A, B, C)[0]
        live = log_modulus > _LOG_CF_FLOOR
        with np.errstate(divide="ignore"):
            speed = np.where(live, _log_cf_speed(grid, A, B, C), 0.0).sum(axis=0)
            speed += np.minimum(scale, 3.0 / grid)  # panels below 2u/3 wide resolve the 1/u factor
        panels = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(grid))])
        panels /= _PANEL_SPAN
        last = int(np.searchsorted(panels, _MAX_PANELS, side="right")) - 1
        bound = _tail_bound(grid, A, log_modulus)
        done = np.nonzero(bound[: last + 1] <= np.pi * TV_TOL / 8.0)[0]
        if len(done) or last < size - 1:
            break
    stop = int(done[0]) if len(done) else last

    n_panels = max(int(math.ceil(panels[stop])), 1)
    edges = np.interp(np.linspace(0.0, panels[stop], n_panels + 1), panels[: stop + 1], grid[: stop + 1])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)

    x = np.concatenate([_GL_FINE[0], _GL_COARSE[0]])
    u = (mid[:, None] + half[:, None] * x).ravel()
    log_modulus, phase = _log_cf(u, A, B, C)
    im_phi = np.exp(log_modulus, out=log_modulus)
    im_phi *= np.sin(phase, out=phase)
    f = ((im_phi[0] - im_phi[1]) / u).reshape(len(mid), len(x)) * half[:, None]
    n_fine = len(_GL_FINE[0])
    value = float(np.sum(f[:, :n_fine] @ _GL_FINE[1]))
    err = abs(value - float(np.sum(f[:, n_fine:] @ _GL_COARSE[1])))
    tail = None if len(done) else _oscillatory_tail(float(grid[stop]), A, B, C)
    if tail is None:
        err += float(bound[stop])
    else:
        value, err = value + tail[0], err + tail[1]
    return float(min(max(value / np.pi, 0.0), 1.0)), err / np.pi


def tv_gaussian(g1: Gaussian, g2: Gaussian, method: str = "cdf_quadrature") -> TVResult:
    """Total variation distance between two Gaussians.

    Both methods read `_whiten(g1, g2) = (lam, nu)` and the gap (3/2) ||lam - 1||_2,
    which is (3/2) ||C - I||_F for the whitened first covariance C.  A
    singular pair raises numpy's LinAlgError.

    Methods:
      - "cdf_quadrature": exact P1(LLR > 0) - P2(LLR > 0) for the
        log-likelihood ratio LLR = log(phi1 / phi2), in any dimension: the
        closed form in 1-D, slices of the level set in 2-D, and one
        Gil-Pelaez integral of the LLR's characteristic functions in
        dimension >= 3.  When the gap is within TV_TOL, the
        equal-covariance closed form tv_unit(nu) is used instead, and the
        gap is its `abserr`.  Otherwise, when the Bhattacharyya coefficient
        BC = prod_j (2 sqrt(lam_j) / (1 + lam_j))^(1/2) exp(-nu_j^2 / (4 (1 + lam_j)))
        is within TV_TOL, the pair is saturated: 1 - BC <= d_TV <= 1, so
        the value is 1.0 with `abserr` BC.  Returns the error estimate as `abserr` (0.0
        for the 1-D closed form) and kind "exact" when it is within
        TV_TOL = 1e-9, "estimate" otherwise.
      - "frobenius_bound": the gap, valid for a common mean; returned as an
        upper bound (Devroye, Mehrabian & Reddad 2018).
    """
    if g1.dim != g2.dim:
        raise ParameterError("dimension mismatch")
    if method == "frobenius_bound":
        scale = 1.0 + float(np.linalg.norm(g1.mean) + np.linalg.norm(g2.mean))
        if np.linalg.norm(g1.mean - g2.mean) > 1e-9 * scale:
            raise MethodError("the Frobenius bound applies to a common mean")
    elif method != "cdf_quadrature":
        raise MethodError(f"unknown method {method!r}")
    lam, nu = _whiten(g1, g2)
    gap = 1.5 * float(np.linalg.norm(lam - 1.0))
    if method == "frobenius_bound":
        return TVResult(value=gap, kind="upper_bound")
    # Bhattacharyya coefficient of the whitened pair; 1 - BC <= d_TV <= 1
    bc = math.exp(float(np.sum(0.5 * np.log(2.0 * np.sqrt(lam) / (1.0 + lam)) - nu**2 / (4.0 * (1.0 + lam)))))
    if gap <= TV_TOL:
        # d_TV(N(nu, diag(lam)), N(nu, I)) <= gap, so the equal-covariance closed form is off by at most gap
        value, abserr = tv_unit(nu), gap
    elif bc <= TV_TOL:
        value, abserr = 1.0, bc
    elif g1.dim == 1:
        value, abserr = _tv_cdf_1d(*_llr_terms(lam, nu)), 0.0
    elif g1.dim == 2:
        value, abserr = _tv_cdf_2d(g1, g2)
    else:
        value, abserr = _tv_gil_pelaez(*_llr_terms(lam, nu))
    kind = "exact" if abserr <= TV_TOL else "estimate"
    return TVResult(value=value, kind=kind, abserr=abserr)
