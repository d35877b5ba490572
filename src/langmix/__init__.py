"""Stability, Gaussian-fluctuation, and cut-off analysis for underdamped Langevin dynamics."""

__version__ = "0.1.0"

from .model import (
    AssumptionReport,
    CoercivityCertificate,
    ForceField,
    ModelSpec,
    certify_coercivity,
    check_assumption_DF,
    check_assumption_main,
    drift_matrix,
    force_from_config,
    make_gradient_force,
    make_linear_force,
    select_lambda,
)
from .linear_stability import (
    StabilityVerdict,
    classify_linear,
    flow_zero_noise,
    k_matrix,
    lyapunov_H,
    quadratic_gronwall_bound,
    relaxation_time_T,
    t_matrix,
    verify_exponential_stability,
)
from .matrix_eq import (
    LyapunovSolution,
    drift_metric_delta,
    gamma_matrix,
    lyapunov_quadrature,
    sigma_matrix,
    solve_lyapunov_stable,
)
from .gaussian_tv import Gaussian, TVResult, tv_gaussian, tv_unit
from .covflow import (
    CovariancePath,
    integrate_covariance,
    short_time_covariance,
    stationary_gap,
)
from .cutoff import (
    SpectralData,
    cutoff_curve,
    mixing_time,
    profile_D,
    profile_lambda,
    profile_lambda_alt,
    profile_limit_r,
    spectral_data,
)
from .simulate import (
    TrajectoryBatch,
    empirical_tv,
    exp_moment_bound,
    integrate_fluctuation,
    integrate_sde,
    moment_bound,
    pinsker_kl_bound,
)
