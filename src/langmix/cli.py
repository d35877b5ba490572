"""Command-line interface.

Subcommands: analyze-linear, stationary-cov, cov-flow, mixing-time,
cutoff-curve, simulate, stationary-check, verify.  Exit codes: 0 iff all
requested checks pass, 1 for a failed verdict, 2 for bad input or an
unreadable file (with one stderr line), 3 for an indeterminate
`analyze-linear` verdict, and 141 (128 + SIGPIPE), silently, when the reader
of stdout has gone.  All inputs come from flags and config files, never from
the environment.  --log-level (default warning) sets the level of the
`langmix` logger, whose records go to stderr while the command runs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .checks import verify_suite
from .covflow import integrate_covariance
from .cutoff import mixing_time, spectral_data
from .harness import (
    load_config,
    run_cutoff_experiment,
    run_stationary_check,
    spec_from_model_config,
    write_csv,
)
from .linear_stability import classify_linear
from .matrix_eq import sigma_matrix, sigma_solution
from .simulate import integrate_sde


def _load_matrix(path: str) -> np.ndarray:
    if path.endswith(".json"):
        with open(path) as fh:
            return np.asarray(json.load(fh), dtype=float)
    return np.atleast_2d(np.loadtxt(path))


def _load_spec(path: str):
    return spec_from_model_config(load_config(path).model)


def _parse_vector(text: str) -> np.ndarray:
    return np.asarray([float(v) for v in text.split(",")], dtype=float)


def _cmd_analyze_linear(args) -> int:
    verdict = classify_linear(_load_matrix(args.matrix), args.gamma)
    print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    if verdict.indeterminate:
        return 3
    return 0 if verdict.stable else 1


def _cmd_stationary_cov(args) -> int:
    spec = _load_spec(args.config)
    sol = sigma_solution(spec)
    print(
        json.dumps(
            {
                "sigma": sol.X.tolist(),
                "residual_fro": sol.residual_fro,
                "min_eig": sol.min_eig,
                "certified_pd": sol.certified_pd,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0 if sol.min_eig > 0 else 1


def _cmd_cov_flow(args) -> int:
    spec = _load_spec(args.config)
    x0 = _parse_vector(args.x0)
    sigma = sigma_matrix(spec)
    path = integrate_covariance(spec, x0, args.t_end, args.dt)
    n = 2 * spec.dim
    header = ["t"] + [f"sigma_{i}{j}" for i in range(n) for j in range(n)] + ["gap_fro"]
    rows = []
    for t, c in zip(path.grid, path.covs):
        rows.append((t, *c.ravel(), float(np.linalg.norm(c - sigma, "fro"))))
    write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({len(rows)} rows, {path.clamp_events} clamp events)")
    return 0


def _cmd_mixing_time(args) -> int:
    spec = _load_spec(args.config)
    sd = spectral_data(spec, _parse_vector(args.x))
    out = {
        "eta": sd.eta,
        "nu": sd.nu,
        "tau": sd.tau,
        "t_mix": mixing_time(sd, args.epsilon),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_cutoff_curve(args) -> int:
    manifest = run_cutoff_experiment(load_config(args.config))
    print(json.dumps({"passed": manifest.passed, "artifacts": manifest.artifacts}, indent=2))
    return 0 if manifest.passed else 1


def _cmd_simulate(args) -> int:
    spec = _load_spec(args.model)
    x0 = _parse_vector(args.x0) if args.x0 else np.zeros(2 * spec.dim)
    batch = integrate_sde(
        spec,
        x0,
        t_end=args.t_end,
        dt=args.dt,
        n_paths=args.paths,
        seed=args.seed,
        epsilon=args.epsilon,
        scheme=args.scheme,
        store_every=args.store_every,
    )
    d = spec.dim
    header = ["path_id", "t"] + [f"q{i}" for i in range(d)] + [f"p{i}" for i in range(d)]
    rows = []
    for pid in range(batch.states.shape[0]):
        for ti, t in enumerate(batch.grid):
            rows.append((pid, float(t), *batch.states[pid, ti]))
    write_csv(args.out, header, rows)
    print(f"wrote {args.out} ({batch.states.shape[0]} paths, excluded {batch.excluded})")
    return 0


def _cmd_stationary_check(args) -> int:
    manifest = run_stationary_check(load_config(args.config))
    print(json.dumps({"passed": manifest.passed, "summary": manifest.summary}, indent=2))
    return 0 if manifest.passed else 1


def _cmd_verify(args) -> int:
    manifest = verify_suite(args.out_dir)
    for check in manifest.summary["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: margin={check['margin']:.4g} {check['detail']}")
    print(f"verify: {'all passed' if manifest.passed else 'FAILURES PRESENT'}")
    return 0 if manifest.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="langmix", description=__doc__)
    parser.add_argument("--version", action="version", version=f"langmix {__version__}")
    parser.add_argument("--log-level", choices=["debug", "info", "warning", "error"], default="warning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-linear", help="stability verdict for a linear force matrix")
    p.add_argument("--matrix", required=True, help="text or .json file holding the matrix")
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(fn=_cmd_analyze_linear)

    p = sub.add_parser("stationary-cov", help="stationary fluctuation covariance as JSON")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_stationary_cov)

    p = sub.add_parser("cov-flow", help="covariance flow along the zero-noise path as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--x0", required=True, help="comma-separated 2d start point")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=0.05, help="output spacing of the CSV rows")
    p.add_argument("--out", default="cov_flow.csv")
    p.set_defaults(fn=_cmd_cov_flow)

    p = sub.add_parser("mixing-time", help="cut-off constants and mixing time as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--x", required=True, help="comma-separated 2d start point")
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(fn=_cmd_mixing_time)

    p = sub.add_parser("cutoff-curve", help="exact TV curves and profiles over the window grid")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_cutoff_curve)

    p = sub.add_parser("simulate", help="simulate the noisy dynamics to CSV")
    p.add_argument("--model", required=True, help="config file holding the model block")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--x0", default=None)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--scheme", choices=["baoab", "euler_maruyama"], default="baoab")
    p.add_argument("--store-every", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("stationary-check", help="long-run ensembles vs the Gaussian limit")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_stationary_check)

    p = sub.add_parser("verify", help="run the invariant verification suite")
    p.add_argument("--out-dir", default="langmix_verify")
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    logger, handler = logging.getLogger("langmix"), logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(levelname)s: %(message)s"))
    level = logger.level
    logger.setLevel(args.log_level.upper())
    logger.addHandler(handler)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:  # every langmix input error is a ValueError, as are the parsers'
        print(f"langmix {args.command}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
