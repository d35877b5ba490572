"""Linear stability theory of the zero-noise flow and the Lyapunov certificate.

The zero-noise dynamics dq = p dt, dp = -F(q) dt - gamma p dt is linearized by
the block matrix T_M = [[0, -I], [M, gamma I]]; its spectrum sits in the open
right half plane exactly when Sp(M) lies inside the parabola
{a + ib : a > 0, gamma^2 a > b^2}.  The certificate side evaluates the
modified energy H and checks its decay along the flow at the rate lam that
`ModelSpec` derives from (alpha, beta, gamma).  Every zero-noise path, on a
grid or up to a ball entry, comes from the one adaptive solver `solve_path`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DivergenceError, InternalCheckError, ParameterError
from .matrix_eq import drift_metric_delta
from .model import ForceField, ModelSpec, phase_point

#: Relative half-width of the indeterminate band for real parts of eigenvalues.
INDETERMINATE_BAND = 1e-10


def t_matrix(M, gamma: float) -> np.ndarray:
    """Block matrix [[0, -I], [M, gamma I]] driving the linearized flow as dX/dt = -T_M X."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterError(f"M must be square, got shape {M.shape}")
    d = M.shape[0]
    out = np.zeros((2 * d, 2 * d))
    out[:d, d:] = -np.eye(d)
    out[d:, :d] = M
    out[d:, d:] = gamma * np.eye(d)
    return out


def symmetric_part(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def skew_part(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    return 0.5 * (M - M.T)


def k_matrix(M, gamma: float) -> np.ndarray:
    """Symmetric certificate gamma^2 M_s + M_a^2 + (M_a M_s - M_s M_a)/2."""
    Ms, Ma = symmetric_part(M), skew_part(M)
    K = gamma**2 * Ms + Ma @ Ma + 0.5 * (Ma @ Ms - Ms @ Ma)
    return 0.5 * (K + K.T)


@dataclass
class CriterionResult:
    name: str
    satisfied: Optional[bool]
    witness: float


@dataclass
class StabilityVerdict:
    stable: bool
    indeterminate: bool
    criterion_trace: list
    spectrum_TM: np.ndarray
    spectrum_M: np.ndarray

    def to_dict(self) -> dict:
        return {
            "stable": bool(self.stable),
            "indeterminate": bool(self.indeterminate),
            "criteria": [
                {"name": c.name, "satisfied": c.satisfied, "witness": c.witness}
                for c in self.criterion_trace
            ],
            "spectrum_TM": [[z.real, z.imag] for z in self.spectrum_TM],
            "spectrum_M": [[z.real, z.imag] for z in self.spectrum_M],
        }


def classify_linear(M, gamma: float) -> StabilityVerdict:
    """Stability verdict for the linear force F(q) = M q.

    Four criteria are recorded: the parabola region test on Sp(M), the direct
    eigenvalue check on T_M (this one decides `stable`), the sufficient
    positive-definiteness of gamma^2 M_s + M_a^2, and, for normal M, the
    equivalence of that test with the verdict.  Disagreement between the first
    two outside the tolerance band raises, since they are provably equivalent.
    """
    M = np.asarray(M, dtype=float)
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    TM = t_matrix(M, gamma)
    spec_TM = np.linalg.eigvals(TM)
    spec_M = np.linalg.eigvals(M)

    tol_tm = INDETERMINATE_BAND * max(1.0, np.linalg.norm(TM, 2))
    tol_m = INDETERMINATE_BAND * max(1.0, np.linalg.norm(M, 2))

    re = spec_TM.real
    indeterminate = bool(np.any(np.abs(re) < tol_tm))
    c_eig = bool(np.all(re > 0))

    a, b = spec_M.real, spec_M.imag
    parabola_margin = float(np.min(np.minimum(a, gamma**2 * a - b**2)))
    indeterminate = indeterminate or abs(parabola_margin) < tol_m
    c_parabola = bool(parabola_margin > 0)

    S = symmetric_part(M)
    A = skew_part(M)
    suff = gamma**2 * S + A @ A
    min_eig_suff = float(np.min(np.linalg.eigvalsh(0.5 * (suff + suff.T))))
    c_suff = bool(min_eig_suff > 0)

    normal_resid = float(np.linalg.norm(M @ M.T - M.T @ M))
    is_normal = normal_resid <= 1e-10 * max(1.0, np.linalg.norm(M, 2) ** 2)

    trace = [
        CriterionResult("spectrum_in_parabola", c_parabola, parabola_margin),
        CriterionResult("eigencheck_T_M", c_eig, float(np.min(re))),
        CriterionResult("sufficient_pd", c_suff, min_eig_suff),
        CriterionResult(
            "normal_equivalence",
            (c_suff == c_eig) if is_normal else None,
            normal_resid,
        ),
    ]

    if not indeterminate and c_parabola != c_eig:
        raise InternalCheckError(
            f"parabola criterion ({c_parabola}) and T_M eigencheck ({c_eig}) disagree"
        )

    return StabilityVerdict(
        stable=c_eig,
        indeterminate=indeterminate,
        criterion_trace=trace,
        spectrum_TM=spec_TM,
        spectrum_M=spec_M,
    )


def _split_qp(x: np.ndarray, d: int):
    x = np.asarray(x, dtype=float)
    return x[..., :d], x[..., d:]


def lyapunov_H(spec: ModelSpec, x) -> np.ndarray:
    """Modified energy H(x) = |p|^2/2 + (g-l)/2 <q,p> + (g-l)^2/4 |q|^2 + U(q)."""
    q, p = _split_qp(x, spec.dim)
    g = spec.gamma - spec.lam
    quad = (
        0.5 * np.sum(p * p, axis=-1)
        + 0.5 * g * np.sum(q * p, axis=-1)
        + 0.25 * g**2 * np.sum(q * q, axis=-1)
    )
    return quad + spec.force.eval_U(q)


def total_energy(spec: ModelSpec, x) -> np.ndarray:
    """Plain energy |p|^2/2 + U(q); not a Lyapunov function for non-gradient forces."""
    q, p = _split_qp(x, spec.dim)
    return 0.5 * np.sum(p * p, axis=-1) + spec.force.eval_U(q)


@dataclass
class FlowPath:
    grid: np.ndarray
    states: np.ndarray  # (n_times, 2d)


#: state norm beyond which a path counts as diverged
BLOWUP = 1e12
#: relative tolerance on increments of exp(lam t) H(X_t) in the decay certificate
DECAY_TOL = 1e-8
#: grid step of the zero-noise path along which the decay certificate is checked
DECAY_DT = 1e-3
#: relative and absolute tolerances of the adaptive (DOP853) zero-noise path solver
PATH_RTOL = 1e-11
PATH_ATOL = 1e-13


def _flow_rhs(force: ForceField, gamma: float, x: np.ndarray) -> np.ndarray:
    d = force.dim
    q, p = x[..., :d], x[..., d:]
    dq = p
    dp = -force.eval_F(q) - gamma * p
    return np.concatenate([dq, dp], axis=-1)


def _norm_crossing(n: int, radius: float, direction: float):
    """Terminal solver event: |y[:n]| crosses radius in the given direction."""
    event = lambda t, y: np.linalg.norm(y[:n]) - radius
    event.terminal, event.direction = True, direction
    return event


def solve_path(rhs, y0, t_span: tuple, n: int, t_eval=None, entry_radius=None):
    """Adaptive DOP853 solution of dy/dt = rhs(y) over t_span, y[:n] being the zero-noise state.

    With entry_radius the solve stops where |y[:n]| first falls to it (event
    1).  It raises DivergenceError when |y[:n]| passes BLOWUP or the solver
    fails.  Returns scipy's OdeResult.
    """
    if not np.all(np.isfinite(rhs(y0))):  # scipy's first-step choice never ends on NaN
        raise DivergenceError("zero-noise flow is not finite at its start", t=t_span[0], last_state=y0[:n])
    events = [_norm_crossing(n, BLOWUP, 1.0)]
    if entry_radius is not None:
        events.append(_norm_crossing(n, entry_radius, -1.0))
    sol = solve_ivp(lambda t, y: rhs(y), t_span, y0, method="DOP853", t_eval=t_eval, events=events,
                    rtol=PATH_RTOL, atol=PATH_ATOL)
    if sol.t_events[0].size:
        t, y = sol.t_events[0][0], sol.y_events[0][0][:n]
        raise DivergenceError("zero-noise flow diverged", t=t, last_state=y)
    if not sol.success:
        t, y = (sol.t[-1], sol.y[:n, -1]) if sol.t.size else (t_span[0], y0[:n])
        raise DivergenceError(f"zero-noise flow solver failed: {sol.message}", t=t, last_state=y)
    return sol


def flow_zero_noise(spec: ModelSpec, x0, t_end: float, dt: float) -> FlowPath:
    """The zero-noise flow from x0, reported on the grid k*dt for k = 0 .. round(t_end/dt).

    One adaptive `solve_path` solve; the grid only selects the reported
    states, it does not set the solver's steps.  Blow-up raises
    DivergenceError with the time and the last state.
    """
    if dt <= 0 or t_end < 0:
        raise ParameterError("need dt > 0 and t_end >= 0")
    x = phase_point(spec, x0).copy()
    grid = np.arange(int(round(t_end / dt)) + 1) * dt
    if grid.size == 1:
        return FlowPath(grid=grid, states=x[None, :])
    sol = solve_path(lambda y: _flow_rhs(spec.force, spec.gamma, y), x, (0.0, grid[-1]), 2 * spec.dim, t_eval=grid)
    return FlowPath(grid=grid, states=sol.y.T)


@dataclass
class StabilityCertificateReport:
    """Numerical check of the exponential-decay certificate along one trajectory."""

    monotone: bool
    max_violation: float
    norm_bound_holds: bool
    max_norm_ratio: float


def verify_exponential_stability(spec: ModelSpec, x0, t_end: float) -> StabilityCertificateReport:
    """Check that exp(lam t) H(X_t) is non-increasing along the flow, on the grid of step DECAY_DT.

    Also verifies |X_t|^2 <= kappa (|x0|^2 + U(q0)) exp(-lam t).  Violations are
    reported, not raised: an unstable model yields a failing certificate.
    """
    x0 = np.asarray(x0, dtype=float)
    try:
        path = flow_zero_noise(spec, x0, t_end, DECAY_DT)
    except DivergenceError:
        return StabilityCertificateReport(
            monotone=False, max_violation=np.inf, norm_bound_holds=False, max_norm_ratio=np.inf
        )
    h = lyapunov_H(spec, path.states)
    g = np.exp(spec.lam * path.grid) * h
    h0 = float(h[0])
    increments = np.diff(g)
    max_violation = float(max(0.0, np.max(increments, initial=0.0)))
    monotone = max_violation <= DECAY_TOL * max(h0, 1e-300)

    q0 = x0[: spec.dim]
    u0 = float(spec.force.eval_U(q0))
    bound0 = spec.kappa * (float(x0 @ x0) + u0)
    norms2 = np.sum(path.states**2, axis=-1)
    with np.errstate(over="ignore"):
        ratio = norms2 * np.exp(spec.lam * path.grid) / max(bound0, 1e-300)
    max_ratio = float(np.max(ratio))
    return StabilityCertificateReport(
        monotone=bool(monotone),
        max_violation=max_violation,
        norm_bound_holds=bool(max_ratio <= 1.0 + 1e-9),
        max_norm_ratio=max_ratio,
    )


def quadratic_gronwall_bound(a: float, b: float, c: float, M: float, u0: float, t) -> np.ndarray:
    """Decay envelope alpha + sqrt(delta)/(M c) exp(-sqrt(delta) t) for u' <= a - b u + c u^2.

    Requires delta = b^2 - 4 a c > 0, M > 1, and the starting value below the
    threshold (M alpha + beta)/(M + 1), with alpha <= beta the roots of the
    quadratic.  Accepts scalar or array t.
    """
    if b <= 0 or c <= 0 or a < 0:
        raise ParameterError("need a >= 0, b > 0, c > 0")
    if M <= 1:
        raise ParameterError("need M > 1")
    delta = b * b - 4.0 * a * c
    if delta <= 0:
        raise ParameterError(f"discriminant b^2 - 4ac = {delta:.3e} must be positive")
    sq = math.sqrt(delta)
    alpha = (b - sq) / (2.0 * c)
    beta = (b + sq) / (2.0 * c)
    threshold = (M * alpha + beta) / (M + 1.0)
    if u0 > threshold * (1 + 1e-12):
        raise ParameterError(f"u0 = {u0:.6g} exceeds the admissible threshold {threshold:.6g}")
    t = np.asarray(t, dtype=float)
    return alpha + (sq / (M * c)) * np.exp(-sq * t)


def relaxation_time_T(spec: ModelSpec, x) -> float:
    """Time after which the flow from x is confined to the drift-metric ball.

    T(x) = max( log( kappa (|x|^2 + U(q)) / delta^2 ) / lam, 0 ), with delta the
    drift-metric radius `drift_metric_delta(spec)`.
    """
    x = np.asarray(x, dtype=float)
    q = x[: spec.dim]
    u = float(spec.force.eval_U(q))
    val = spec.kappa * (float(x @ x) + u) / drift_metric_delta(spec) ** 2
    if val <= 1.0:
        return 0.0
    return math.log(val) / spec.lam
