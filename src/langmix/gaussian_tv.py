"""Gaussian distributions and total-variation distances between them.

`tv_gaussian` reduces a pair once, by `_whiten`, to N(nu, diag(lam)) against
N(0, I), and reads one exact method and one bound from it.  The exact method
is deterministic in every dimension: the equal-covariance closed form when
the whitened gap 1.5 ||lam - 1||_2 is within TV_TOL, 1.0 when the pair's
Bhattacharyya coefficient is (so 1 - TV_TOL <= d_TV), the closed form in 1-D,
slices of the log-likelihood-ratio region into per-line intervals with exact
conditional normal probabilities in 2-D, and in dimension >= 3 one Gil-Pelaez
inversion of its characteristic functions, exact to TV_TOL.  The bound is
the whitened gap, the 3/2 Frobenius-norm upper bound for equal means.  The
first law may be a stack, reduced at once and read row by row.
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
    """Mean / covariance pair, or a stack of them: mean (P, n) and cov (P, n, n).

    `clamped` and `regularized` record repairs of the covariance, not
    inputs; for a stack `clamped` holds one flag per law.  Each law of a
    stack is checked and repaired as it would be alone.  `chol` and `sample`
    take a single law.
    """

    mean: np.ndarray
    cov: np.ndarray
    clamped: bool = field(default=False, init=False)
    regularized: bool = field(default=False, init=False)

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        n = self.mean.shape[-1]
        if self.mean.ndim > 2 or cov.shape != self.mean.shape + (n,):
            raise ParameterError(f"covariance shape {cov.shape} does not match mean of size {n}")
        scale = np.maximum(1.0, np.linalg.norm(cov, "fro", axis=(-2, -1)))
        if np.any(np.linalg.norm(cov - np.swapaxes(cov, -1, -2), "fro", axis=(-2, -1)) > _SYM_RTOL * scale * 10):
            raise ParameterError("covariance is not symmetric")
        cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
        eigs, vecs = np.linalg.eigh(cov)
        low = eigs[..., 0]
        floor = -_EIG_RTOL * np.maximum(np.trace(cov, axis1=-2, axis2=-1) / n, 1e-300)
        below = low < floor * 10
        if np.any(below):
            raise ParameterError(f"covariance has eigenvalue {np.min(low[below]):.3e} below the clamping floor")
        clamped = low < 0
        if np.any(clamped):
            vecs = vecs[clamped]
            repaired = (vecs * np.maximum(eigs[clamped], 0.0)[:, None, :]) @ np.swapaxes(vecs, -1, -2)
            cov[clamped] = 0.5 * (repaired + np.swapaxes(repaired, -1, -2))
            log.debug("clamped negative covariance eigenvalues to zero in %d of %d laws",
                      np.count_nonzero(clamped), clamped.size)
        self.clamped = clamped if self.mean.ndim == 2 else bool(clamped)
        self.cov = cov

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

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
    route: tuple = ()  # how cdf_quadrature reached the value; see `tv_gaussian`


#: absolute tolerance of every value that cdf_quadrature reports as "exact"
TV_TOL = 1e-9
#: Gauss-Legendre rule on each head panel of the Gil-Pelaez integral, and the
#: coarser rule whose gap to it is the head's error estimate
_GL_FINE = np.polynomial.legendre.leggauss(16)
_GL_COARSE = np.polynomial.legendre.leggauss(8)
_GL_NODES = np.concatenate([_GL_FINE[0], _GL_COARSE[0]])
#: change of phase plus log-modulus, in radians, that one head panel spans
_PANEL_SPAN = 2.0
#: head panels before the oscillatory tail is left to QAWF
_MAX_PANELS = 400
#: envelope grid in units of the log-likelihood ratio's standard deviation,
#: and the points of it tried first
_ENVELOPE_GRID = np.exp2(np.arange(-32, 385) / 4.0)
_ENVELOPE_FIRST = 81
#: most terms (rows x 2 x d x grid points) that one envelope temporary holds
_ENVELOPE_ELEMENTS = 1 << 18
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


def _loglr_coefficients(m1, S1, m2, S2):
    """Quadratic form of log(phi1 / phi2) for N(m1, S1) and N(m2, S2): returns (Q, l, c0)."""
    S1i = np.linalg.inv(S1)
    S2i = np.linalg.inv(S2)
    Q = S2i - S1i
    l = S1i @ m1 - S2i @ m2
    _, ld1 = np.linalg.slogdet(S1)
    _, ld2 = np.linalg.slogdet(S2)
    c0 = 0.5 * (m2 @ S2i @ m2 - m1 @ S1i @ m1) + 0.5 * (ld2 - ld1)
    return Q, l, float(c0)


def _tv_cdf_1d(A, B, C) -> float:
    """Closed-form TV in 1-D: P_k is the N(0, 1) mass of {xi : A_k xi^2 + B_k xi + C_k > 0}."""
    p1, p2 = (_normal_prob_intervals(0.0, 1.0, _interval_union_above_zero(a, b, c))
              for a, b, c in zip(A[:, 0], B[:, 0], C[:, 0]))
    return max(p1 - p2, 0.0)


def _tv_cdf_2d(m1, S1, m2, S2):
    """TV of N(m1, S1) and N(m2, S2) as P1(loglr > 0) - P2(loglr > 0), slicing the region along lines.

    For fixed second coordinate y the region is a union of at most two
    intervals in the first coordinate, whose conditional normal probability is
    exact; the outer integral over y is one-dimensional adaptive quadrature,
    whose error estimate is returned with the value.  The integrand's
    per-pair constants are taken once.
    """
    Q, l, c0 = _loglr_coefficients(m1, S1, m2, S2)

    params = []
    for sign, m, S in ((1.0, m1, S1), (-1.0, m2, S2)):
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

    lo = min(m[1] - 12.0 * math.sqrt(S[1, 1]) for m, S in ((m1, S1), (m2, S2)))
    hi = max(m[1] + 12.0 * math.sqrt(S[1, 1]) for m, S in ((m1, S1), (m2, S2)))
    mid_points = sorted({float(m1[1]), float(m2[1])})
    val, abserr = quad(
        integrand, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=800, points=mid_points, full_output=1
    )[:2]
    return float(min(max(val, 0.0), 1.0)), float(abserr)


def _whiten(g1: Gaussian, g2: Gaussian):
    """(lam, nu) with d_TV(g1, g2) = d_TV(N(nu, diag(lam)), N(0, I)); a singular pair raises LinAlgError.

    Whitening by g2's Cholesky factor L, then rotating to the eigenbasis of L^{-1} S1 L^{-T},
    leaves its ascending eigenvalues lam and the rotated mean nu.  For a stack g1,
    lam and nu hold one row per law; g2 is one law, factored once.
    """
    # L^{-1} from LAPACK trtri: scipy's triangular solve wakes a second BLAS
    # thread even for 4 x 4 blocks, which then spins for the rest of the run
    Li = sla.lapack.dtrtri(np.linalg.cholesky(g2.cov), lower=1)[0]
    mu = Li @ (g1.mean - g2.mean)[..., None]
    K = Li @ g1.cov @ Li.T
    lam, V = np.linalg.eigh(0.5 * (K + np.swapaxes(K, -1, -2)))
    if np.any(lam[..., 0] <= 0.0):
        raise np.linalg.LinAlgError("first covariance is singular")
    return lam, (np.swapaxes(V, -1, -2) @ mu)[..., 0]


def _llr_terms(lam: np.ndarray, nu: np.ndarray):
    """Rows (under g1, under g2) of A, B, C with log(p1/p2) = sum_j A_j xi_j^2 + B_j xi_j + C_j.

    In the coordinates of `_whiten` the xi_j are independent standard normals
    under either Gaussian.  Each is (..., 2, d) for lam and nu of shape (..., d).
    """
    half_logdet = 0.5 * np.log(lam)
    A = np.stack([0.5 * (lam - 1.0), 0.5 * (1.0 - 1.0 / lam)], axis=-2)
    B = np.stack([nu * np.sqrt(lam), nu / lam], axis=-2)
    C = np.stack([0.5 * nu**2 - half_logdet, -0.5 * nu**2 / lam - half_logdet], axis=-2)
    return A, B, C


def _log_modulus(u: np.ndarray, A, B):
    """Log-modulus of phi_k(u) under each row k, and q = 1 + 4 u^2 A^2 of each term.

    The terms are laid out (..., row, direction, node), so each sum over
    directions adds whole rows of nodes, in direction order: u holds the
    nodes on its last axis and broadcasts against A[..., None].  Every
    temporary is written in place.
    """
    a = A[..., None]
    q = np.square(u * a)
    q *= 4.0
    q += 1.0
    terms = np.log(q)
    terms *= 0.25
    ratio = np.multiply(0.5 * u**2, B[..., None] ** 2)
    ratio /= q
    terms += ratio
    return -terms.sum(axis=-2), q


def _log_cf(u: np.ndarray, A, B, C):
    """Log-modulus and phase of phi_k(u) under each row k, laid out as in `_log_modulus`.

    The factor of one direction is (1 - 2iuA)^(-1/2) exp(-u^2 B^2 / (2 (1 - 2iuA))) e^(iuC),
    whose modulus and phase are real expressions in q = 1 + 4 u^2 A^2.
    """
    # the sums are cheap, the elementwise terms are the cost
    log_modulus, q = _log_modulus(u, A, B)
    a = A[..., None]
    phase_terms = u * a
    phase_terms *= 2.0  # 2 u A, exactly
    np.arctan(phase_terms, out=phase_terms)
    phase_terms *= 0.5
    ratio = np.multiply(u**3, B[..., None] ** 2)
    ratio *= a
    ratio /= q
    phase_terms -= ratio
    phase = phase_terms.sum(axis=-2)
    phase += u * C.sum(axis=-1)[..., None]
    return log_modulus, phase


def _log_cf_speed(u: np.ndarray, A, B, C) -> np.ndarray:
    """|d/du log-modulus| + |d/du phase| of phi_k(u): how fast the integrand turns; laid out as `_log_modulus`."""
    a, b2 = A[..., None], B[..., None] ** 2
    q = 1.0 + 4.0 * (u * a) ** 2
    d_modulus = (2.0 * u * a**2 / q + u * b2 / q**2).sum(axis=-2)
    d_phase = (a / q - b2 * a * u**2 * (2.0 + q) / q**2).sum(axis=-2) + C.sum(axis=-1)[..., None]
    return d_modulus + np.abs(d_phase)


def _tail_bound(u: np.ndarray, A, log_modulus: np.ndarray) -> np.ndarray:
    """Rigorous bound on int_u^inf (|phi_1| + |phi_2|)(s) / s ds at every u, laid out as `_log_modulus`.

    For s >= u each factor's modulus is nonincreasing, and for any m of the
    directions with A_j != 0, (1 + 4 s^2 A_j^2)^(-1/4) <= (1 + 4 u^2 A_j^2)^(-1/4)
    (u/s)^(1/2) (1 + 1/(4 u^2 A_j^2))^(1/4); integrating (u/s)^(m/2) / s gives
    2/m.  The m largest |A_j| give the smallest factor for each m.
    """
    a = -np.sort(-np.abs(A), axis=-1)[..., None]  # (..., 2, d, 1), largest first; zeros last
    m = np.arange(1, A.shape[-1] + 1)[:, None]
    with np.errstate(divide="ignore"):
        log_factors = 0.25 * np.log1p(1.0 / (4.0 * u**2 * a**2))
    # the product over m factors in log space: at d = 128 it overflows as a cumprod
    best = np.exp(np.min(np.cumsum(log_factors, axis=-2) + np.log(2.0 / m), axis=-2))
    return np.sum(np.exp(log_modulus) * best, axis=-2)


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


def _envelope(grid: np.ndarray, scale: np.ndarray, A, B, C):
    """(panels, bound, stop, settled) of the `_llr_terms` stacks A, B, C on their envelope grids (rows, n).

    panels[i, j] counts the head panels that [0, grid[i, j]] needs and
    bound[i, j] is the tail bound there; only the log-modulus is taken.
    stop[i] is the first point whose bound is below the tolerance (settled)
    or else the last point within _MAX_PANELS panels.  The rows go through
    in chunks of at most _ENVELOPE_ELEMENTS terms.
    """
    step = max(1, _ENVELOPE_ELEMENTS // (2 * A.shape[-1] * grid.shape[1]))
    panels, bound = np.empty_like(grid), np.empty_like(grid)
    for lo in range(0, len(grid), step):
        rows = slice(lo, lo + step)
        g, u = grid[rows], grid[rows, None, None, :]
        log_modulus = _log_modulus(u, A[rows], B[rows])[0]
        live = log_modulus > _LOG_CF_FLOOR
        with np.errstate(divide="ignore"):
            speed = np.where(live, _log_cf_speed(u, A[rows], B[rows], C[rows]), 0.0).sum(axis=-2)
            speed += np.minimum(scale[rows, None], 3.0 / g)  # panels below 2u/3 wide resolve the 1/u factor
        panels[rows, 0] = 0.0
        np.cumsum(0.5 * (speed[:, 1:] + speed[:, :-1]) * np.diff(g), axis=-1, out=panels[rows, 1:])
        panels[rows] /= _PANEL_SPAN
        bound[rows] = _tail_bound(u, A[rows], log_modulus)
    # panels never decrease along a row, so the points within _MAX_PANELS panels are a prefix
    last = np.count_nonzero(panels <= _MAX_PANELS, axis=1) - 1
    done = (bound <= np.pi * TV_TOL / 8.0) & (np.arange(grid.shape[1]) <= last[:, None])
    settled = done.any(axis=1)
    return panels, bound, np.where(settled, done.argmax(axis=1), last), settled


def _tv_gil_pelaez(A, B, C) -> list:
    """Per row of the `_llr_terms` stacks A, B, C, of shape (..., 2, d): (TV, absolute error bound, route).

    With phi_k the characteristic function of log(p1/p2) under g_k,
    d_TV = P_1(LLR > 0) - P_2(LLR > 0) = (1/pi) int_0^inf Im[phi_1 - phi_2](u) / u du
    (Imhof 1961; Davies 1980).  The head [0, U] is one vectorized composite
    Gauss-Legendre sum on panels sized to the local speed of the phase and
    modulus; its error estimate is the gap to a coarser rule on the same
    panels.  U is the first envelope-grid point whose rigorous tail bound is
    below the tolerance; when the head would need more than _MAX_PANELS panels
    first, it stops there and QAWF integrates the oscillatory tail.  The
    envelope takes all rows at once, on the full grid only for the rows
    whose first _ENVELOPE_FIRST points neither settle U nor reach
    _MAX_PANELS; each row runs its own head and tail.  route is
    ("gil_pelaez",) plus "full_grid" and "qawf_tail" where they ran.
    """
    A, B, C = (x.reshape(-1, 2, x.shape[-1]) for x in (A, B, C))
    scale = np.sqrt(np.max(np.sum(2.0 * A**2 + B**2, axis=-1), axis=-1))  # sd of each row's LLR
    full = np.concatenate([np.zeros((len(A), 1)), _ENVELOPE_GRID / scale[:, None]], axis=1)
    rows = list(zip(full[:, :_ENVELOPE_FIRST], *_envelope(full[:, :_ENVELOPE_FIRST], scale, A, B, C)))
    wide = [i for i, (*_, stop, settled) in enumerate(rows) if not settled and stop == _ENVELOPE_FIRST - 1]
    for i, row in zip(wide, zip(full[wide], *_envelope(full[wide], scale[wide], A[wide], B[wide], C[wide]))):
        rows[i] = row

    out = []
    n_fine = len(_GL_FINE[0])
    for i, (grid, panels, bound, stop, settled) in enumerate(rows):
        n_panels = max(int(math.ceil(panels[stop])), 1)
        edges = np.interp(np.linspace(0.0, panels[stop], n_panels + 1), panels[: stop + 1], grid[: stop + 1])
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        u = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
        log_modulus, phase = _log_cf(u, A[i], B[i], C[i])
        im_phi = np.exp(log_modulus, out=log_modulus)
        im_phi *= np.sin(phase, out=phase)
        f = ((im_phi[0] - im_phi[1]) / u).reshape(len(mid), len(_GL_NODES)) * half[:, None]
        value = float(np.sum(f[:, :n_fine] @ _GL_FINE[1]))
        err = abs(value - float(np.sum(f[:, n_fine:] @ _GL_COARSE[1])))
        tail = None if settled else _oscillatory_tail(float(grid[stop]), A[i], B[i], C[i])
        if tail is None:
            err += float(bound[stop])
        else:
            value, err = value + tail[0], err + tail[1]
        route = ("gil_pelaez",) + ("full_grid",) * (i in wide) + ("qawf_tail",) * (tail is not None)
        out.append((float(min(max(value / np.pi, 0.0), 1.0)), err / np.pi, route))
    return out


def tv_gaussian(g1: Gaussian, g2: Gaussian, method: str = "cdf_quadrature"):
    """Total variation distance between two Gaussians, or between each law of a stack g1 and g2.

    Returns one TVResult, or for a stack g1 a list of them, one per law in
    order; each equals the result of its law alone, bit for bit.  The stack
    is validated, whitened against g2 and split into its branches at once;
    the Gil-Pelaez rows share their envelope, and each runs its own head.
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
        TV_TOL = 1e-9, "estimate" otherwise.  `route` names the branch
        ("closed_form", "saturated", "one_d", "slicer" or "gil_pelaez"),
        then "full_grid" and "qawf_tail" where the Gil-Pelaez envelope took
        its full grid and QAWF integrated its tail.
      - "frobenius_bound": the gap, valid for a common mean; returned as an
        upper bound (Devroye, Mehrabian & Reddad 2018).
    """
    if g1.dim != g2.dim:
        raise ParameterError("dimension mismatch")
    if g2.mean.ndim != 1:
        raise ParameterError("the second law must be a single Gaussian")
    if method == "frobenius_bound":
        scale = 1.0 + np.linalg.norm(g1.mean, axis=-1) + np.linalg.norm(g2.mean)
        if np.any(np.linalg.norm(g1.mean - g2.mean, axis=-1) > 1e-9 * scale):
            raise MethodError("the Frobenius bound applies to a common mean")
    elif method != "cdf_quadrature":
        raise MethodError(f"unknown method {method!r}")
    lam, nu = _whiten(g1, g2)
    d = g1.dim
    lam, nu, means, covs = lam.reshape(-1, d), nu.reshape(-1, d), g1.mean.reshape(-1, d), g1.cov.reshape(-1, d, d)
    gaps = [1.5 * float(np.linalg.norm(row - 1.0)) for row in lam]
    if method == "frobenius_bound":
        results = [TVResult(value=gap, kind="upper_bound") for gap in gaps]
        return results if g1.mean.ndim == 2 else results[0]
    # Bhattacharyya coefficient of the whitened pair; 1 - BC <= d_TV <= 1
    log_bc = np.sum(0.5 * np.log(2.0 * np.sqrt(lam) / (1.0 + lam)) - nu**2 / (4.0 * (1.0 + lam)), axis=-1)
    A, B, C = _llr_terms(lam, nu)
    found, gil_pelaez = [None] * len(lam), []
    for i, (gap, bc) in enumerate(zip(gaps, (math.exp(float(x)) for x in log_bc))):
        if gap <= TV_TOL:
            # d_TV(N(nu, diag(lam)), N(nu, I)) <= gap, so the equal-covariance closed form is off by at most gap
            found[i] = tv_unit(nu[i]), gap, ("closed_form",)
        elif bc <= TV_TOL:
            found[i] = 1.0, bc, ("saturated",)
        elif d == 1:
            found[i] = _tv_cdf_1d(A[i], B[i], C[i]), 0.0, ("one_d",)
        elif d == 2:
            found[i] = (*_tv_cdf_2d(means[i], covs[i], g2.mean, g2.cov), ("slicer",))
        else:
            gil_pelaez.append(i)
    if gil_pelaez:
        for i, row in zip(gil_pelaez, _tv_gil_pelaez(A[gil_pelaez], B[gil_pelaez], C[gil_pelaez])):
            found[i] = row
    results = [TVResult(value=value, kind="exact" if abserr <= TV_TOL else "estimate", abserr=abserr, route=route)
               for value, abserr, route in found]
    return results if g1.mean.ndim == 2 else results[0]
