"""Force fields, model parameters, and verification of the standing assumptions.

A force field packages the drift F of the momentum equation together with its
Jacobian and the split F = grad(U) + ell into a gradient part and a
non-gradient part, as four pure evaluators that broadcast over leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial
from scipy.special import ndtri

from .errors import (
    ConsistencyError,
    DecompositionMissingError,
    DimensionMismatchError,
    ParameterError,
)

#: relative tolerance of the coercivity checks, sampled and exact
DEFAULT_TOL = 1e-9

# Step of the centered finite differences.
_FD_STEP = 1e-5


def sample_ball(dim: int, radius: float, n: int) -> np.ndarray:
    """Quasi-random points in the closed ball of given radius, origin included.

    Uses the R_d Kronecker sequence in s = dim + 1 dimensions (Roberts 2018,
    "The unreasonable effectiveness of quasirandom sequences"): point k = 1,
    2, ... is the fractional part of 1/2 + k (1/phi, ..., 1/phi**s), with phi
    the positive root of x**(s + 1) = x + 1.  There is no seed: the points are
    a fixed function of (dim, radius, n), and a longer set extends a shorter
    one.  The first dim coordinates give a direction through the Gaussian
    inverse CDF, the last one gives the radius with the volume-uniform
    u**(1/dim) profile.  Returns an (n, dim) array whose first row is the
    origin.
    """
    if n < 1:
        raise ParameterError("need at least one sample")
    if n == 1 or radius == 0.0:
        return np.zeros((n, dim))
    s = dim + 1
    phi = 2.0
    for _ in range(64):  # x -> (1 + x)**(1/(s + 1)) contracts by at least 3x
        phi = (1.0 + phi) ** (1.0 / (s + 1))
    alpha = phi ** -np.arange(1.0, s + 1)
    u = (0.5 + np.arange(1, n)[:, None] * alpha) % 1.0
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    g = ndtri(u[:, :dim])
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = radius * u[:, dim] ** (1.0 / dim)
    pts = np.zeros((n, dim))
    pts[1:] = g * r[:, None]
    return pts


def central_difference_jacobian(f: Callable, q: np.ndarray, h: float = _FD_STEP) -> np.ndarray:
    """Centered O(h^2) finite-difference Jacobian of f at a single point q (the gradient for a scalar f)."""
    q = np.asarray(q, dtype=float)
    d = q.shape[-1]
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        cols.append((np.asarray(f(q + e), dtype=float) - np.asarray(f(q - e), dtype=float)) / (2 * h))
    return np.stack(cols, axis=-1)


@dataclass(eq=False)
class ForceField:
    """Drift of the momentum equation together with derivatives and metadata.

    For a linear force, and only for one, matrix holds M with F(q) = M q.
    For a polynomial gradient force, coeffs is the (dim, k) table whose row
    i holds the coefficients, lowest degree first, of the term p_i(q_i) of
    U(q) = sum_i p_i(q_i).
    Either table is what `certify_coercivity` and the linear classification
    read.  The four evaluators are required, satisfy F = grad(U) + ell, and
    return float arrays for q of shape (..., d): eval_F and eval_ell of shape
    (..., d), eval_DF of shape (..., d, d) and eval_U of shape (...).
    Consumers convert nothing.
    """

    dim: int
    eval_F: Callable[[np.ndarray], np.ndarray]
    eval_DF: Callable[[np.ndarray], np.ndarray]
    eval_U: Callable[[np.ndarray], np.ndarray]
    eval_ell: Callable[[np.ndarray], np.ndarray]
    matrix: Optional[np.ndarray] = None
    coeffs: Optional[np.ndarray] = None

    @property
    def quadratic_growth(self) -> bool:
        """U grows at most quadratically: a linear force, or a polynomial potential of degree <= 2."""
        return self.matrix is not None or (self.coeffs is not None and not np.any(self.coeffs[:, 3:]))


def select_lambda(alpha: float, beta: float, gamma: float) -> float:
    """Largest admissible Lyapunov rate, shrunk by 0.99 to stay strictly feasible.

    The three scalar conditions lam (gamma - lam)/2 <= alpha,
    2 lam / (gamma - lam) <= alpha, beta^2 <= gamma (gamma - lam) each give a
    closed-form upper boundary on lam in (0, gamma); the smallest wins.
    """
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if not (0.0 < beta < gamma):
        raise ParameterError("beta must lie in (0, gamma)")
    if alpha >= gamma**2 / 8.0:
        b1 = gamma
    else:
        b1 = (gamma - math.sqrt(gamma**2 - 8.0 * alpha)) / 2.0
    b2 = alpha * gamma / (2.0 + alpha)
    b3 = gamma - beta**2 / gamma
    lam = 0.99 * min(b1, b2, b3)
    if lam <= 0:
        raise ParameterError("no admissible lambda; parameters are inconsistent")
    return lam


def kappa0_constant(gamma: float, lam: float) -> float:
    """Closed-form norm-equivalence constant from the quadratic sandwich on H."""
    return max(6.0, 16.0 / (gamma - lam) ** 2, 2.0 * gamma**2)


@dataclass(eq=False)
class ModelSpec:
    """A force field with friction gamma and the coercivity constants alpha, beta.

    None of them depends on the noise level, which the sampling functions take.
    The certificate constants follow from them once, at construction: lam =
    select_lambda(alpha, beta, gamma) is the exponential decay rate of the
    Lyapunov function, kappa0 = kappa0_constant(gamma, lam) the
    norm-equivalence constant and kappa = kappa0**2 the stability constant.
    """

    force: ForceField
    gamma: float
    alpha: float
    beta: float
    lam: float = field(init=False)
    kappa0: float = field(init=False)

    def __post_init__(self):
        if self.gamma <= 0:
            raise ParameterError("friction gamma must be positive")
        self.lam = select_lambda(self.alpha, self.beta, self.gamma)
        self.kappa0 = kappa0_constant(self.gamma, self.lam)

    @property
    def kappa(self) -> float:
        return self.kappa0**2

    @property
    def dim(self) -> int:
        return self.force.dim


def phase_point(spec: ModelSpec, x0) -> np.ndarray:
    """x0 as a float array, once it has the phase-space shape (2 dim,)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2 * spec.dim,):
        raise ParameterError(f"x0 must have shape ({2 * spec.dim},)")
    return x0


def drift_matrix(spec: ModelSpec, q) -> np.ndarray:
    """Linearization A(q) = [[0, I], [-DF(q), -gamma I]] of the flow, of shape (..., 2d, 2d) for q (..., d)."""
    d = spec.dim
    DF = spec.force.eval_DF(q)
    A = np.zeros(DF.shape[:-2] + (2 * d, 2 * d))
    A[..., :d, d:] = np.eye(d)
    A[..., d:, :d] = -DF
    A[..., d:, d:] = -spec.gamma * np.eye(d)
    return A


def noise_matrix(dim: int) -> np.ndarray:
    """Momentum-block diffusion matrix J = diag(0, I)."""
    J = np.zeros((2 * dim, 2 * dim))
    J[dim:, dim:] = np.eye(dim)
    return J


def make_linear_force(M) -> ForceField:
    """Force field F(q) = M q with the symmetric / skew-symmetric split.

    U(q) = <M_s q, q>/2 and ell(q) = M_a q, where M_s and M_a are the symmetric
    and skew-symmetric parts of M.  For symmetric M this reduces to the pure
    gradient case ell = 0.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"force matrix must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ParameterError("force matrix has non-finite entries")
    M = M.copy()
    d = M.shape[0]
    Ms = 0.5 * (M + M.T)
    Ma = 0.5 * (M - M.T)

    def eval_F(q):
        return np.asarray(q, dtype=float) @ M.T

    def eval_DF(q):
        q = np.asarray(q, dtype=float)
        return np.broadcast_to(M, q.shape[:-1] + (d, d))

    def eval_U(q):
        q = np.asarray(q, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", q, Ms, q)

    def eval_ell(q):
        return np.asarray(q, dtype=float) @ Ma.T

    return ForceField(
        dim=d,
        eval_F=eval_F,
        eval_DF=eval_DF,
        eval_U=eval_U,
        eval_ell=eval_ell,
        matrix=M,
    )


# Probe points (in the unit ball) and the relative error tolerated at them
# when a user-supplied gradient and Hessian are cross-checked.
_PROBE_COUNT = 9
_PROBE_TOL = 1e-6


def _zero_ell(q):
    return np.zeros_like(np.asarray(q, dtype=float))


def make_gradient_force(dim: int, U: Callable, gradU: Callable, hessU: Callable) -> ForceField:
    """Force field F = grad(U) for a user-supplied potential.

    The three callables are cross-checked at quasi-random probe points:
    gradU against centered differences of U, and hessU against centered
    differences of gradU.  Inconsistency raises naming the worst point.
    The evaluators bring what the callables return to the `ForceField`
    contract: float arrays, with DF reshaped to (..., dim, dim).
    """
    probes = sample_ball(dim, 1.0, _PROBE_COUNT)
    for f, df, what in ((U, gradU, "gradU disagrees with finite differences of U"),
                        (gradU, hessU, "hessU disagrees with finite differences of gradU")):
        worst = (0.0, None)
        for q in probes:
            fd = central_difference_jacobian(f, q)
            err = float(np.linalg.norm(np.asarray(df(q), dtype=float) - fd))
            scale = 1.0 + float(np.linalg.norm(fd))
            if err / scale > worst[0]:
                worst = (err / scale, q)
        if worst[0] > _PROBE_TOL:
            raise ConsistencyError(
                f"{what} (relative error {worst[0]:.3e} at q={np.array2string(worst[1], precision=4)})"
            )
    g0 = np.asarray(gradU(np.zeros(dim)), dtype=float)
    if np.linalg.norm(g0) > _PROBE_TOL:
        raise ConsistencyError("the origin is not a critical point of U: grad U(0) != 0")

    def eval_F(q):
        return np.asarray(gradU(q), dtype=float)

    def eval_DF(q):
        return np.asarray(hessU(q), dtype=float).reshape(np.shape(q)[:-1] + (dim, dim))

    def eval_U(q):
        return np.asarray(U(q), dtype=float)

    return ForceField(dim=dim, eval_F=eval_F, eval_DF=eval_DF, eval_U=eval_U, eval_ell=_zero_ell)


@dataclass
class AssumptionReport:
    """Result of the sampled coercivity check."""

    holds_on_samples: bool
    worst_margin: float
    worst_point: np.ndarray
    quadratic_variant_holds: Optional[bool] = None
    quadratic_variant_worst_margin: Optional[float] = None


def check_assumption_main(spec: ModelSpec, radius: float, n_samples: int) -> AssumptionReport:
    """Sampled verification of the coercivity inequality on a ball.

    Evaluates margin(q) = <F(q), q> - alpha (|q|^2 + U(q)) - |ell(q)|^2 / beta^2
    at quasi-random points (origin included) and reports the worst case.  The
    inequality is declared to hold on the samples when the worst margin is
    above -DEFAULT_TOL relative to the local scale of <F(q), q>.  When the
    potential grows at most quadratically (`ForceField.quadratic_growth`),
    the variant with U dropped from the right hand side is checked as well.
    For a polynomial gradient force, `certify_coercivity` decides the same
    inequality exactly on all of R^dim.
    """
    force = spec.force
    pts = sample_ball(force.dim, radius, n_samples)
    inner = np.sum(force.eval_F(pts) * pts, axis=-1)
    u = force.eval_U(pts)
    ell = force.eval_ell(pts)
    ell2 = np.sum(ell * ell, axis=-1)
    q2 = np.sum(pts * pts, axis=-1)
    margin = inner - spec.alpha * (q2 + u) - ell2 / spec.beta**2
    i = int(np.argmin(margin))
    scale = 1.0 + float(np.max(np.abs(inner)))
    worst = float(margin[i])
    report = AssumptionReport(
        holds_on_samples=bool(worst >= -DEFAULT_TOL * scale),
        worst_margin=worst,
        worst_point=pts[i].copy(),
    )
    if force.quadratic_growth:
        margin2 = inner - spec.alpha * q2 - ell2 / spec.beta**2
        report.quadratic_variant_worst_margin = float(np.min(margin2))
        report.quadratic_variant_holds = bool(np.min(margin2) >= -DEFAULT_TOL * scale)
    return report


@dataclass
class CoercivityCertificate:
    """Exact verdict of `certify_coercivity`; a refuted one carries a point with a negative margin."""

    certified: bool
    min_s: float
    witness: Optional[np.ndarray] = None
    margin: Optional[float] = None


def certify_coercivity(spec: ModelSpec) -> CoercivityCertificate:
    """Decide the coercivity inequality on all of R^dim for a separable polynomial gradient force.

    With U(q) = sum_i p_i(q_i) and ell = 0 the margin
    <F(q), q> - alpha (|q|^2 + U(q)) is sum_i q_i^2 s_i(q_i), where s_i is
    the polynomial q p_i'(q) - alpha (q^2 + p_i(q)) divided by q^2.  It is
    nonnegative everywhere iff every s_i is: bounded below (even degree,
    positive leading coefficient) with its minimum over 0 and the real roots
    of s_i' at least -DEFAULT_TOL times the scale 1 + sum_k k |c_k| of
    q p_i'(q).  Otherwise the witness is a point on coordinate i with a
    negative margin: a minimizer of q^2 s_i(q) among the real roots of its
    derivative and the two points one unit beyond every root of s_i.
    """
    force = spec.force
    if force.coeffs is None:
        raise DecompositionMissingError("the exact coercivity check needs a polynomial coefficient table")
    min_s = math.inf
    for i, c in enumerate(force.coeffs):
        k = np.arange(len(c))
        m = (k - spec.alpha) * c
        m[2] -= spec.alpha
        s = Polynomial(m[2:]).trim()
        bounded = s.degree() == 0 or (s.degree() % 2 == 0 and s.coef[-1] > 0)
        s_min = float(np.min(s(np.concatenate([[0.0], s.deriv().roots().real])))) if bounded else -math.inf
        min_s = min(min_s, s_min)
        if s_min < -DEFAULT_TOL * (1.0 + float(np.sum(np.abs(k * c)))):
            margin = Polynomial(m)
            reach = 1.0 + float(np.max(np.abs(s.roots()), initial=0.0))
            candidates = np.concatenate([margin.deriv().roots().real, [reach, -reach]])
            q = candidates[int(np.argmin(margin(candidates)))]
            witness = np.zeros(force.dim)
            witness[i] = q
            return CoercivityCertificate(False, min_s, witness, float(margin(q)))
    return CoercivityCertificate(True, min_s)


@dataclass
class JacobianGrowthReport:
    """Fitted constants of the sampled Jacobian growth bound |DF(q)| <= C exp(rho |q|^2)."""

    C_hat: float
    rho_hat: float
    max_ratio: float


def check_assumption_DF(spec: ModelSpec, radius: float, n_samples: int) -> JacobianGrowthReport:
    """Least-squares fit of (C, rho) on log |DF(q)| versus |q|^2 over ball samples.

    rho is clamped at zero (the bound cannot decay); when all samples sit at
    the same |q| (radius zero) the fit degenerates to rho = 0 with C the
    largest observed norm.  max_ratio reports the worst |DF| / (C exp(rho|q|^2))
    over the samples as a looseness diagnostic.
    """
    force = spec.force
    pts = sample_ball(force.dim, radius, n_samples)
    norms = np.maximum(np.linalg.norm(force.eval_DF(pts), 2, axis=(1, 2)), 1e-300)
    u = np.sum(pts * pts, axis=-1)
    y = np.log(norms)
    if np.ptp(u) < 1e-14 or np.ptp(y) < 1e-12 * (1.0 + float(np.abs(y).max())):
        # constant |q| or constant Jacobian norm: the growth rate is zero
        c_hat, rho_hat = float(np.max(norms)), 0.0
    else:
        slope, intercept = np.polyfit(u, y, 1)
        rho_hat = float(max(slope, 0.0))
        c_hat = float(np.exp(np.max(y)) if rho_hat == 0.0 else np.exp(intercept))
    ratio = float(np.max(norms / (c_hat * np.exp(rho_hat * u))))
    return JacobianGrowthReport(C_hat=c_hat, rho_hat=rho_hat, max_ratio=ratio)


def _polynomial_gradient_force(coeffs) -> ForceField:
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 3:
        raise ParameterError("polynomial potential needs a 1-d coefficient table of degree >= 2")
    if abs(c[0]) > 0 or abs(c[1]) > 0:
        raise ParameterError("polynomial potential must have U(0) = 0 and U'(0) = 0")
    # np.polyval wants highest degree first.
    pu = c[::-1]
    pg = np.polyder(pu)
    ph = np.polyder(pg)

    def U(q):
        q = np.asarray(q, dtype=float)
        return np.polyval(pu, q[..., 0])

    # Python floats: numpy scalars slow the in-place adds on tiny arrays.
    pg_terms = pg.tolist()

    def gradU(q):
        # np.polyval's own Horner sequence (y = 0, then y = y * q + c for
        # each c), in place: the same values bit for bit with no temporaries.
        q = np.asarray(q, dtype=float)
        y = np.zeros(q.shape)
        for ci in pg_terms:
            y *= q
            y += ci
        return y

    def hessU(q):
        q = np.asarray(q, dtype=float)
        return np.polyval(ph, q)[..., None]

    return ForceField(dim=1, eval_F=gradU, eval_DF=hessU, eval_U=U, eval_ell=_zero_ell, coeffs=c[None, :])


def force_from_config(cfg: dict) -> ForceField:
    """Build a force field from a config block.

    Supported blocks: {"type": "linear", "matrix": [[...]]} with F(q) = M q,
    and {"type": "polynomial_gradient", "coeffs": [0, 0, c2, c3, ...]} with
    U(q) = sum c_k q^k in one dimension.  Each has an exact stability
    verdict: `classify_linear` for the first, `certify_coercivity` for the
    second.  Unknown types and keys are errors.
    """
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ParameterError("force config must be a dict with a 'type' key")
    kind = cfg["type"]
    if kind == "linear":
        _require_keys(cfg, {"type", "matrix"})
        return make_linear_force(cfg["matrix"])
    if kind == "polynomial_gradient":
        _require_keys(cfg, {"type", "coeffs"})
        return _polynomial_gradient_force(cfg["coeffs"])
    raise ParameterError(f"unknown force type {kind!r}")


def _require_keys(cfg: dict, allowed: set):
    unknown = set(cfg) - allowed
    if unknown:
        raise ParameterError(f"unknown force config keys: {sorted(unknown)}")
    missing = allowed - set(cfg)
    if missing:
        raise ParameterError(f"missing force config keys: {sorted(missing)}")
