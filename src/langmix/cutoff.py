"""Jordan-structure constants of the linearized flow, mixing time, cut-off profiles and curves.

As t grows, the zero-noise path behaves like t^nu exp(-eta t) times an
almost-periodic combination sum_k exp(i theta_k t) v_k, where eta is the
smallest decay rate actually excited by the starting point, nu the associated
polynomial order, and the v_k come from the Jordan expansion of the starting
point (or of the point where the path first enters the linearization ball,
with the corresponding time shift tau).  These constants drive the mixing
time and the shape of the total-variation profile.  `cutoff_curve` sets the
exact Gaussian cut-off curve against those profiles on the window around
each mixing time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .covflow import integrate_covariance
from .errors import DomainError, ParameterError, StabilityError
from .gaussian_tv import Gaussian, TVResult, tv_gaussian, tv_unit
from .linear_stability import _flow_rhs, relaxation_time_T, solve_path
from .matrix_eq import drift_metric_delta, sigma_inv_sqrt, sigma_matrix
from .model import ModelSpec, drift_matrix, phase_point

#: relative tolerance for rank decisions in the staircase algorithm
RANK_TOL = 1e-8
#: relative threshold below which an expansion coefficient is dropped
COEFF_TOL = 1e-10
#: scan length and relative oscillation tolerance of the profile limit r
PROFILE_HORIZON = 200.0
PROFILE_TOL = 1e-6


@dataclass
class JordanChain:
    eigenvalue: complex  # eigenvalue mu of A (Re mu < 0 for stable models)
    vectors: np.ndarray  # (length, n) chain w_1..w_N with (A - mu) w_k = w_{k+1}

    @property
    def length(self) -> int:
        return self.vectors.shape[0]


def _orthonormal_kernel(B: np.ndarray):
    """Orthonormal kernel basis of B and a flag for ambiguous rank decisions."""
    u, s, vh = np.linalg.svd(B)
    smax = s[0] if s.size else 0.0
    thresh = RANK_TOL * max(smax, 1.0)
    rank = int(np.sum(s > thresh))
    ambiguous = bool(np.any((s > thresh / 10.0) & (s <= thresh * 10.0) & (s != 0)))
    return vh[rank:].conj().T, ambiguous


def _cluster_eigenvalues(eigs: np.ndarray, tol: float):
    """Single-linkage clustering of eigenvalues within distance tol."""
    remaining = list(range(len(eigs)))
    clusters = []
    while remaining:
        group = [remaining.pop(0)]
        changed = True
        while changed:
            changed = False
            for i in remaining[:]:
                if any(abs(eigs[i] - eigs[j]) <= tol for j in group):
                    group.append(i)
                    remaining.remove(i)
                    changed = True
        clusters.append(np.mean(eigs[group]))
    return clusters


def jordan_chains(A: np.ndarray):
    """Numerical Jordan chains of A via staircase rank decisions.

    Returns (chains, flagged).  Chains use the convention
    (A - mu) w_k = w_{k+1} with w_1 a generator and w_length an eigenvector.
    Conjugate eigenvalues reuse the conjugated chains of their mirror so that
    conjugate structure is exact.  flagged marks rank decisions that fell
    inside the tolerance band.
    """
    A = np.asarray(A)
    n = A.shape[0]
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    tol = RANK_TOL * scale
    eigs = np.linalg.eigvals(A)
    centers = _cluster_eigenvalues(eigs, tol * 10)
    flagged = False
    chains: list[JordanChain] = []
    done_conjugates = {}
    for mu in centers:
        key = (round(mu.real / tol), round(abs(mu.imag) / tol))
        if mu.imag < -tol and key in done_conjugates:
            for ch in done_conjugates[key]:
                chains.append(JordanChain(eigenvalue=ch.eigenvalue.conjugate(), vectors=ch.vectors.conj()))
            continue
        mult = int(np.sum(np.abs(eigs - mu) <= tol * 10))
        B = A.astype(complex) - mu * np.eye(n)
        kernels = [np.zeros((n, 0), dtype=complex)]
        Bp = np.eye(n, dtype=complex)
        nullities = [0]
        p = 0
        while nullities[-1] < mult and p < n:
            p += 1
            Bp = Bp @ B
            K, amb = _orthonormal_kernel(Bp)
            flagged = flagged or amb
            kernels.append(K)
            nullities.append(K.shape[1])
        weyr = np.diff(nullities)  # weyr[k-1] = number of blocks of size >= k
        new_chains: list[JordanChain] = []
        for k in range(p, 0, -1):
            have = sum(1 for ch in new_chains if ch.length >= k)
            need = int(weyr[k - 1]) - have
            if need <= 0:
                continue
            # candidates live in ker(B^k); exclude ker(B^{k-1}) and the
            # level-k members of already-built longer chains
            exclude = [kernels[k - 1]]
            for ch in new_chains:
                if ch.length > k:
                    exclude.append(ch.vectors[ch.length - k][:, None])
            E = np.hstack(exclude) if exclude else np.zeros((n, 0), dtype=complex)
            if E.shape[1] > 0:
                Q, _ = np.linalg.qr(E)
                proj = kernels[k] - Q @ (Q.conj().T @ kernels[k])
            else:
                proj = kernels[k]
            u, s, vh = np.linalg.svd(proj, full_matrices=False)
            for i in range(need):
                gen = kernels[k] @ vh[i].conj()
                gen = gen / np.linalg.norm(gen)
                vecs = [gen]
                for _ in range(k - 1):
                    vecs.append(B @ vecs[-1])
                new_chains.append(JordanChain(eigenvalue=mu, vectors=np.asarray(vecs)))
        chains.extend(new_chains)
        if abs(mu.imag) > tol:
            done_conjugates[key] = new_chains
    return chains, flagged


@dataclass
class SpectralData:
    """Decay constants of the path from one starting point.

    eta: slowest excited decay rate; nu: polynomial order; tau: time shift to
    the linearization ball; phases/vectors: oscillation frequencies (true
    imaginary parts, sign carried) and limiting complex directions, conjugate
    pairs included; jordan_blocks: (eigenvalue of the linearization, size);
    generic_x: all expansion coefficients above threshold; flagged: a rank
    decision fell in its tolerance band.
    """

    eta: float
    nu: int
    tau: float
    phases: np.ndarray
    vectors: np.ndarray
    jordan_blocks: list
    generic_x: bool
    flagged: bool
    expansion_point: np.ndarray

    @property
    def m(self) -> int:
        return len(self.phases)


def _ball_entry(spec: ModelSpec, x: np.ndarray, rho_lin: float, t_cap: float):
    """(tau, point): entry time into the ball |y| <= rho_lin plus one, and the flow there.

    A terminal event of the adaptive solve locates the entry before t_cap;
    the flow then continues from the entry state for one more time unit.
    """
    n = 2 * spec.dim
    f = lambda y: _flow_rhs(spec.force, spec.gamma, y)
    hit = solve_path(f, x, (0.0, t_cap), n, entry_radius=rho_lin)
    if not hit.t_events[1].size:
        raise StabilityError(
            "the zero-noise flow never entered the linearization ball; "
            "the model looks unstable from this starting point"
        )
    t_entry = float(hit.t_events[1][0])
    after = solve_path(f, hit.y_events[1][0], (t_entry, t_entry + 1.0), n)
    return t_entry + 1.0, after.y[:, -1]


def spectral_data(spec: ModelSpec, x) -> SpectralData:
    """Jordan expansion of the starting point and the resulting decay constants.

    The expansion point is x itself when |x| <= rho_lin, the drift-metric
    radius (tau = 0); otherwise the adaptive zero-noise flow locates its
    first entry into that ball, before the Lyapunov-bound horizon
    relaxation_time_T(x) + 5, and the point one time unit later is expanded,
    with tau = entry time + 1.  x must have the shape (2 dim,).
    Coefficients below COEFF_TOL * |x| are dropped; eta is the smallest decay
    rate among the retained chains, nu the largest polynomial order among
    those at rate eta, and the limiting vectors collect the top Jordan
    contribution of each retained chain at that rate and order.
    """
    x = phase_point(spec, x)
    if np.linalg.norm(x) == 0.0:
        raise DomainError("the decay constants are undefined at the equilibrium x = 0")
    rho_lin = drift_metric_delta(spec)

    if np.linalg.norm(x) <= rho_lin:
        tau = 0.0
        point = x
    else:
        tau, point = _ball_entry(spec, x, rho_lin, relaxation_time_T(spec, x) + 5.0)

    A = drift_matrix(spec, np.zeros(spec.dim))
    chains, flagged = jordan_chains(A)
    W = np.hstack([ch.vectors.T for ch in chains])
    coeffs = np.linalg.solve(W, point.astype(complex))

    offsets = np.cumsum([0] + [ch.length for ch in chains])
    retained = np.abs(coeffs) > COEFF_TOL * np.linalg.norm(x)
    generic = bool(np.all(retained))

    # per chain: smallest retained index k (1-based), or None
    active = []
    for j, ch in enumerate(chains):
        sl = slice(offsets[j], offsets[j + 1])
        ks = np.nonzero(retained[sl])[0]
        if ks.size:
            active.append((j, int(ks[0]) + 1))
    if not active:
        raise DomainError("all expansion coefficients fall below threshold; x is numerically 0")

    scale = max(1.0, float(np.linalg.norm(A, 2)))
    re_tol = RANK_TOL * scale
    rates = {j: -chains[j].eigenvalue.real for j, _ in active}
    eta = min(rates.values())
    dominant = [(j, kmin) for j, kmin in active if rates[j] <= eta + re_tol]
    nu = max(chains[j].length - kmin for j, kmin in dominant)
    top = [(j, kmin) for j, kmin in dominant if chains[j].length - kmin == nu]

    phases = []
    vectors = []
    for j, kmin in top:
        ch = chains[j]
        c = coeffs[offsets[j] + kmin - 1]
        phases.append(ch.eigenvalue.imag)
        vectors.append(c * ch.vectors[-1] / math.factorial(nu))
    jordan_blocks = [(ch.eigenvalue, ch.length) for ch in chains]

    return SpectralData(
        eta=float(eta),
        nu=int(nu),
        tau=float(tau),
        phases=np.asarray(phases, dtype=float),
        vectors=np.asarray(vectors),
        jordan_blocks=jordan_blocks,
        generic_x=generic,
        flagged=bool(flagged),
        expansion_point=np.asarray(point, dtype=float),
    )


def mixing_time(sd: SpectralData, epsilon: float) -> float:
    """Cut-off time log(1/2eps)/(2 eta) + nu loglog(1/2eps)/eta + tau."""
    if not (0.0 < epsilon < 0.5):
        raise DomainError("epsilon must lie in (0, 1/2) for the mixing time to be defined")
    L = math.log(1.0 / (2.0 * epsilon))
    t = L / (2.0 * sd.eta) + sd.tau
    if sd.nu > 0:
        t += (sd.nu / sd.eta) * math.log(L)
    return t


def oscillating_sum(sd: SpectralData, s) -> np.ndarray:
    """Real part of sum_k exp(i theta_k s) v_k for scalar or array s."""
    s = np.asarray(s, dtype=float)
    phase = np.exp(1j * np.multiply.outer(s, sd.phases))
    return np.real(phase @ sd.vectors) if sd.m else np.zeros(s.shape + (0,))


def profile_vector(spec: ModelSpec, sd: SpectralData, t: float) -> np.ndarray:
    """Profile direction v(t, x) = (t-tau)^nu exp(-eta (t-tau)) Sigma^{-1/2} (oscillating sum)."""
    if t < sd.tau:
        raise DomainError(f"profile is defined for t >= tau = {sd.tau}")
    s = t - sd.tau
    amp = s**sd.nu * math.exp(-sd.eta * s)
    return amp * (sigma_inv_sqrt(spec) @ oscillating_sum(sd, s))


def profile_D(spec: ModelSpec, sd: SpectralData, t: float, epsilon: float) -> float:
    """Gaussian shift profile D_eps(t) = tv_unit(v(t, x) / sqrt(2 eps))."""
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    v = profile_vector(spec, sd, t)
    return tv_unit(v / math.sqrt(2.0 * epsilon))


def profile_lambda(sd: SpectralData, w) -> np.ndarray:
    """Printed cut-off profile 2 int_0^{sqrt(2) (1/2eta)^nu exp(-w eta)} phi(t) dt.

    This is profile_lambda_alt at r = 2 sqrt(2).
    """
    return profile_lambda_alt(sd, w, 2.0 * math.sqrt(2.0))


def profile_lambda_alt(sd: SpectralData, w, r: float) -> np.ndarray:
    """Alternative profile with the sqrt(2) constant replaced by r/2.

    This is the pointwise limit of D_eps at the mixing-time window when the
    oscillation limit r exists; the two profiles coincide exactly when
    r = 2 sqrt(2).
    """
    w = np.asarray(w, dtype=float)
    z = (r / 2.0) * (1.0 / (2.0 * sd.eta)) ** sd.nu * np.exp(-w * sd.eta)
    return erf(z / math.sqrt(2.0))


@dataclass
class ProfileLimit:
    exists: bool
    r: float
    oscillation: float


def profile_limit_r(spec: ModelSpec, sd: SpectralData) -> ProfileLimit:
    """Existence and value of r = lim_t |Sigma^{-1/2} sum_k exp(i theta_k t) v_k|.

    When every retained phase vanishes the sum is constant and the limit
    exists exactly; otherwise the norm is scanned on a dense grid and the
    limit is declared to exist when the oscillation of the tail half stays
    below PROFILE_TOL relative to its mean.
    """
    inv_sqrt = sigma_inv_sqrt(spec)

    if np.all(np.abs(sd.phases) < 1e-14):
        r = float(np.linalg.norm(inv_sqrt @ np.real(np.sum(sd.vectors, axis=0))))
        return ProfileLimit(exists=True, r=r, oscillation=0.0)

    max_phase = float(np.max(np.abs(sd.phases)))
    step = min(0.05, 2 * math.pi / (50.0 * max_phase))
    s = np.arange(0.0, PROFILE_HORIZON, step)
    vals = np.linalg.norm(oscillating_sum(sd, s) @ inv_sqrt.T, axis=1)
    tail = vals[len(vals) // 2 :]
    mean = float(np.mean(tail))
    osc = float(np.max(tail) - np.min(tail))
    exists = osc <= PROFILE_TOL * max(mean, 1e-300)
    return ProfileLimit(exists=bool(exists), r=mean, oscillation=osc)


def stationary_law(sigma: np.ndarray, epsilon: float) -> Gaussian:
    """N(0, 2 eps sigma), the Gaussian stationary approximation at noise level epsilon."""
    return Gaussian(mean=np.zeros(len(sigma)), cov=2.0 * epsilon * sigma)


def curve_point_tv(mean: np.ndarray, cov_t: np.ndarray, stationary: Gaussian, epsilon: float) -> TVResult:
    """One point of the exact cut-off curve: d_TV(N(mean, 2 eps cov_t), stationary).

    stationary is `stationary_law(sigma, epsilon)`, built once per epsilon
    by the caller: `tv_gaussian` does not change it.  `tv_gaussian`'s one
    exact method, "cdf_quadrature", on the pair whitened once: the closed
    form when the whitened gap is within TV_TOL = 1e-9, the 2-D slicer for
    2-d states, or the Gil-Pelaez integral for 4-d and larger states,
    labelled "exact" when its error estimate is within TV_TOL.
    """
    return tv_gaussian(Gaussian(mean=mean, cov=2.0 * epsilon * cov_t), stationary, method="cdf_quadrature")


@dataclass
class CutoffCurve:
    """One epsilon's curve: at window point i, t_mix + w[i] is snapped to step[i], at t[i] = step[i] dt.

    tv[i] is the point's TVResult, D_eps[i] the shift profile at t[i], and
    Lambda_printed[i], Lambda_alt[i] the cut-off profiles at w[i]
    (Lambda_alt is nan where the limit r does not exist).
    """

    epsilon: float
    t_mix: float
    w: np.ndarray
    step: np.ndarray
    t: np.ndarray
    tv: list
    D_eps: np.ndarray
    Lambda_printed: np.ndarray
    Lambda_alt: np.ndarray

    def summary(self) -> dict:
        """t_mix, sup_diff = max |tv - D_eps| (0.0 on an empty window), window_points,
        tv_inexact (points whose TV is not "exact") and the largest TV abserr."""
        diffs = np.abs(np.array([tv.value for tv in self.tv]) - self.D_eps)
        return {"t_mix": self.t_mix, "sup_diff": float(max([0.0, *diffs])), "window_points": len(self.step),
                "tv_inexact": sum(tv.kind != "exact" for tv in self.tv),
                "tv_max_abserr": max((float(tv.abserr) for tv in self.tv), default=0.0)}


@dataclass
class CutoffRun:
    """`cutoff_curve` of one start: its decay constants, profile limit, path diagnostics and curves.

    seconds holds the wall time of each stage: "spectral" (decay constants,
    profile limit and Sigma), "covariance" (the path at the window steps) and
    "tv" (the exact TV of every window point).
    """

    spectral: SpectralData
    profile: ProfileLimit
    clamp_events: int
    covariance_points: int
    curves: list  # one CutoffCurve per epsilon, in the given order
    seconds: dict


def cutoff_curve(spec: ModelSpec, x0, epsilons, w_grid: dict, dt: float) -> CutoffRun:
    """Exact Gaussian cut-off curves of one start, t -> d_TV(N(X_t, 2 eps Sigma_t), N(0, 2 eps Sigma)).

    The window offsets are w = np.arange(w_grid["min"], w_grid["max"] + 1e-12,
    w_grid["step"]).  Each time t_mix(eps) + w is snapped to the step
    k = round((t_mix + w) / dt), so the covariance carries no interpolation
    error, and kept when max(tau, 4 dt) <= k dt <= t_max, with
    t_max = max_eps t_mix + w_grid["max"] + 1.  One `integrate_covariance`
    call up to t_max evaluates the union of the window steps; t_max sets
    that path's step count, so it comes from the stated max, not the last
    grid point.  An empty window gives empty columns, and when no epsilon
    keeps a step there is no path to evaluate (covariance_points 0), even
    where t_max is shorter than dt.  dt <= 0 raises ParameterError; errors of
    the callees (`spectral_data`, `mixing_time`, `integrate_covariance`)
    reach the caller unchanged.
    """
    if dt <= 0:
        raise ParameterError("dt must be positive")
    clock = time.perf_counter()
    sd = spectral_data(spec, x0)
    pl = profile_limit_r(spec, sd)
    sigma = sigma_matrix(spec)
    seconds = {"spectral": time.perf_counter() - clock}
    w = np.arange(w_grid["min"], w_grid["max"] + 1e-12, w_grid["step"])
    tmix = [mixing_time(sd, eps) for eps in epsilons]
    t_max = max(tmix) + w_grid["max"] + 1.0
    t_floor = max(sd.tau, 4 * dt)
    windows = []
    for tm in tmix:
        k = np.rint((tm + w) / dt).astype(np.int64)
        keep = (k * dt >= t_floor) & (k * dt <= t_max)
        windows.append((w[keep], k[keep]))
    steps = np.concatenate([k for _, k in windows])
    path, clamp_events, covariance_points = None, 0, 0
    clock = time.perf_counter()
    if steps.size:
        path = integrate_covariance(spec, x0, t_max, dt, steps=steps)
        clamp_events, covariance_points = path.clamp_events, len(path.grid)
    seconds["covariance"] = time.perf_counter() - clock
    clock = time.perf_counter()
    tvs = []
    for eps, (_, k) in zip(epsilons, windows):
        stationary = stationary_law(sigma, eps)
        tvs.append([curve_point_tv(*path.at(t), stationary, eps) for t in (k * dt).tolist()])
    seconds["tv"] = time.perf_counter() - clock
    curves = []
    for eps, tm, (w_eps, k), tv in zip(epsilons, tmix, windows, tvs):
        ts = (k * dt).tolist()
        curves.append(CutoffCurve(
            epsilon=eps, t_mix=tm, w=w_eps, step=k, t=k * dt, tv=tv,
            D_eps=np.array([profile_D(spec, sd, t, eps) for t in ts]),
            Lambda_printed=np.array([profile_lambda(sd, wi) for wi in w_eps]),
            Lambda_alt=np.array([profile_lambda_alt(sd, wi, pl.r) if pl.exists else np.nan for wi in w_eps],
                                dtype=float),
        ))
    return CutoffRun(spectral=sd, profile=pl, clamp_events=clamp_events, covariance_points=covariance_points,
                     curves=curves, seconds=seconds)
