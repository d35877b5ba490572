"""The benchmark's workloads: pipeline configs as a function of the workload seed.

Each workload runs one real pipeline entry point of `langmix.harness` on a
model of the built-in corpus.  The model block is looked up in the program's
own corpus by the worker, so this module imports nothing from `langmix` and
the parent process stays light.  Only the Monte Carlo workloads consume the
seed; the deterministic ones always run with config seed 0.
"""

from __future__ import annotations

import copy

EPSILONS = [1e-2, 1e-3, 1e-4]

WORKLOADS = {
    # Start outside the linearization ball: spectral_data integrates ~28k
    # fixed RK4 steps to find tau; 2-d state, so the TV is CDF quadrature.
    "cutoff_quartic": {
        "pipeline": "cutoff",
        "corpus": "quartic",
        "seeded": False,
        "config": {
            "epsilons": EPSILONS,
            "x0": [[1.5, 0.0]],
            "w_grid": {"min": -6.0, "max": 6.0, "step": 0.25},
            "dt": 0.005,
            "mc_curve": False,
        },
    },
    # 4-d state: every curve point is a 200k-sample Monte Carlo TV.
    "cutoff_lin2d": {
        "pipeline": "cutoff",
        "corpus": "lin2d_rot",
        "seeded": False,
        "config": {
            "epsilons": EPSILONS,
            "x0": [[0.5, 0.5, 0.0, 0.0]],
            "w_grid": {"min": -6.0, "max": 6.0, "step": 0.5},
            "dt": 0.005,
            "mc_curve": False,
        },
    },
    # Six small ensembles (256 paths, one partial RNG block each) over
    # thousands of steps, with a knn TV estimate at every curve point.
    "cutoff_mc_small": {
        "pipeline": "cutoff",
        "corpus": "lin1d_complex",
        "seeded": True,
        "config": {
            "epsilons": EPSILONS,
            "x0": [[0.6, 0.3], [0.2, -0.4]],
            "w_grid": {"min": -6.0, "max": 6.0, "step": 0.25},
            "dt": 0.005,
            "mc_curve": True,
            "n_paths": 256,
        },
    },
    # Large-ensemble BAOAB throughput: 2 x 50 000 paths x 1000 steps in
    # full blocks; no flow, no covariance path, no curve.
    "stationary_quartic": {
        "pipeline": "stationary",
        "corpus": "quartic",
        "seeded": True,
        "config": {
            "epsilons": [1e-1, 1e-2],
            "x0": [[0.5, 0.0]],
            "dt": 0.02,
            "horizon": 20.0,
            "n_paths": 50_000,
        },
    },
}

# Reduced sizes for the benchmark's self-test only; they exercise the same
# code paths in a few seconds.
TINY = {
    "cutoff_quartic": {"epsilons": [1e-2], "w_grid": {"min": -2.0, "max": 2.0, "step": 1.0}},
    "cutoff_lin2d": {"epsilons": [1e-2], "w_grid": {"min": -2.0, "max": 2.0, "step": 2.0}},
    "cutoff_mc_small": {
        "epsilons": [1e-2],
        "x0": [[0.6, 0.3]],
        "w_grid": {"min": -2.0, "max": 2.0, "step": 1.0},
        "n_paths": 64,
    },
    "stationary_quartic": {"epsilons": [1e-1], "horizon": 2.0, "n_paths": 2000},
}


def workload_config(name: str, seed: int, tiny: bool = False) -> dict:
    """Pipeline config of workload `name` without its model block.

    The returned dict carries the config seed: the workload seed taken
    modulo 2**32 (the pipelines need a non-negative seed) for the Monte
    Carlo workloads, and 0 otherwise.
    """
    spec = WORKLOADS[name]
    cfg = copy.deepcopy(spec["config"])
    if tiny:
        cfg.update(copy.deepcopy(TINY[name]))
    cfg["seed"] = int(seed) % 2**32 if spec["seeded"] else 0
    return cfg
