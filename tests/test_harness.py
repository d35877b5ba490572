import json
import os

import numpy as np
import pytest

from langmix import checks, harness, matrix_eq
from langmix.cutoff import jordan_chains
from langmix.covflow import drift_matrix, noise_matrix
from langmix.errors import ParameterError, StabilityError
from langmix.harness import (
    UNSTABLE_GAMMA,
    UNSTABLE_MATRIX,
    corpus_spec,
    load_config,
    run_cutoff_experiment,
    run_stationary_check,
    validate_config,
    write_csv,
)
from langmix.matrix_eq import sigma_solution


def minimal_config(tmp_path, **overrides):
    raw = {
        "schema_version": 1,
        "model": {
            "force": {"type": "linear", "matrix": [[1.0]]},
            "gamma": 1.0,
            "alpha": 2 / 3,
            "beta": 0.5,
        },
        "epsilons": [1e-2],
        "x0": [[0.5, 0.2]],
        "w_grid": {"min": -2.0, "max": 2.0, "step": 1.0},
        "dt": 0.01,
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    @pytest.mark.parametrize(
        "key, value",
        [("bogus", 1), ("t_end", 10.0), ("tolerances", {"assumption_tol": 1e-9})],
        ids=["bogus", "t_end", "tolerances"],
    )
    def test_unknown_top_key_rejected(self, tmp_path, key, value):
        with pytest.raises(ParameterError, match="unknown config keys"):
            validate_config(minimal_config(tmp_path, **{key: value}))

    @pytest.mark.parametrize(
        "key, value",
        [("surprise", True), ("theta_exp", 0.25), ("assumption_radius", 3.0)],
        ids=["surprise", "theta_exp", "assumption_radius"],
    )
    def test_unknown_model_key_rejected(self, tmp_path, key, value):
        raw = minimal_config(tmp_path)
        raw["model"][key] = value
        with pytest.raises(ParameterError, match="unknown model keys"):
            validate_config(raw)

    @pytest.mark.parametrize(
        "override",
        [
            {"w_grid": {"min": -1.0, "step": 0.5}},
            {"w_grid": {"min": -1.0, "max": 1.0}},
            {"w_grid": {"min": -1.0, "max": 1.0, "step": 0.0}},
            {"w_grid": {"min": -1.0, "max": 1.0, "step": -0.5}},
            {"w_grid": {"min": 1.0, "max": -1.0, "step": 0.5}},
            {"w_grid": {"min": -1.0, "max": float("inf"), "step": 0.5}},
            {"w_grid": [1, 2]},
            {"n_paths": 0},
            {"n_paths": 1.7},
            {"n_paths": True},
            {"horizon": -1.0},
            {"horizon": float("inf")},
            {"dt": float("nan")},
            {"dt": "x"},
            {"epsilons": 0.01},
            {"x0": [0.5, 0.2]},
            {"seed": "abc"},
            {"mc_curve": "no"},
        ],
        ids=[
            "no_max", "no_step", "zero_step", "negative_step", "max_below_min", "infinite_max", "list_w_grid",
            "no_paths", "fractional_paths", "bool_paths", "negative_horizon", "infinite_horizon", "nan_dt",
            "string_dt", "scalar_epsilons", "flat_x0", "string_seed", "string_mc_curve",
        ],
    )
    def test_unusable_run_sizes_rejected(self, tmp_path, override):
        with pytest.raises(ParameterError):
            validate_config(minimal_config(tmp_path, **override))

    def test_epsilon_range_enforced(self, tmp_path):
        with pytest.raises(ParameterError, match="epsilon"):
            validate_config(minimal_config(tmp_path, epsilons=[0.7]))

    def test_seed_required(self, tmp_path):
        raw = minimal_config(tmp_path)
        del raw["seed"]
        with pytest.raises(ParameterError, match="seed"):
            validate_config(raw)

    def test_schema_version_checked(self, tmp_path):
        with pytest.raises(ParameterError, match="schema_version"):
            validate_config(minimal_config(tmp_path, schema_version=2))

    def test_load_config_roundtrip(self, tmp_path):
        raw = minimal_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(str(path))
        assert cfg.seed == 3
        assert cfg.config_hash == validate_config(raw).config_hash


class TestManifest:
    def test_written_before_and_finalized_after(self, tmp_path):
        cfg = validate_config(minimal_config(tmp_path))
        manifest = run_cutoff_experiment(cfg)
        data = json.loads(open(manifest.path()).read())
        assert data["status"] == "done"
        assert data["wall_clock"] >= 0
        assert data["config_hash"] == cfg.config_hash
        for artifact in data["artifacts"]:
            assert os.path.exists(artifact)

    def test_no_orphan_outputs(self, tmp_path):
        cfg = validate_config(minimal_config(tmp_path))
        manifest = run_cutoff_experiment(cfg)
        listed = {os.path.basename(a) for a in manifest.artifacts} | {"run_manifest.json"}
        assert set(os.listdir(cfg.out_dir)) <= listed

    def test_verify_suite_failure_finalizes_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checks, "CHECKS", {"fake.passes": lambda: checks.CheckResult(True, 0.0)})

        def broken_write_csv(*args):
            raise OSError("disk full")

        monkeypatch.setattr(checks, "write_csv", broken_write_csv)
        out_dir = tmp_path / "verify"
        with pytest.raises(OSError, match="disk full"):
            checks.verify_suite(out_dir=str(out_dir))
        data = json.loads((out_dir / "run_manifest.json").read_text())
        assert data["status"] == "failed"
        assert data["passed"] is False
        assert data["summary"]["error"] == {"type": "OSError", "message": "disk full"}


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; returns the record."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOneSpecPerPipeline:
    def test_stationary_check_builds_force_and_sigma_once(self, tmp_path, monkeypatch):
        builds = _count_calls(monkeypatch, harness, "force_from_config")
        solves = _count_calls(monkeypatch, matrix_eq, "solve_lyapunov_stable")
        raw = minimal_config(tmp_path, epsilons=[1e-1, 1e-2], horizon=0.5, n_paths=64)
        raw["model"] = harness.corpus_model_config("quartic")
        run_stationary_check(validate_config(raw))
        assert len(builds) == 1
        assert len(solves) == 1

    def test_cutoff_experiment_with_mc_curve_builds_force_once(self, tmp_path, monkeypatch):
        builds = _count_calls(monkeypatch, harness, "force_from_config")
        raw = minimal_config(tmp_path, epsilons=[1e-2, 1e-3, 1e-4], mc_curve=True, n_paths=64)
        manifest = run_cutoff_experiment(validate_config(raw))
        assert len(builds) == 1
        assert sum(p.endswith(".csv") for p in manifest.artifacts) == 3


class TestCutoffPipeline:
    def test_refuses_unstable_model(self, tmp_path):
        raw = minimal_config(tmp_path)
        raw["model"]["force"]["matrix"] = UNSTABLE_MATRIX
        raw["model"]["gamma"] = UNSTABLE_GAMMA
        raw["model"]["alpha"] = 0.3
        raw["model"]["beta"] = 0.9
        raw["x0"] = [[0.5, 0.2, 0.0, 0.0]]
        cfg = validate_config(raw)
        with pytest.raises(StabilityError, match="stability"):
            run_cutoff_experiment(cfg)
        # the refused run still leaves a truthful manifest
        data = json.loads(open(os.path.join(cfg.out_dir, "run_manifest.json")).read())
        assert data["status"] == "failed"
        assert data["passed"] is False
        assert data["summary"]["error"]["type"] == "StabilityError"
        assert "stability" in data["summary"]["error"]["message"]

    def test_deterministic_bytes(self, tmp_path):
        raw1 = minimal_config(tmp_path, out_dir=str(tmp_path / "a"))
        raw2 = minimal_config(tmp_path, out_dir=str(tmp_path / "b"))
        m1 = run_cutoff_experiment(validate_config(raw1))
        m2 = run_cutoff_experiment(validate_config(raw2))
        csv1 = sorted(p for p in m1.artifacts if p.endswith(".csv"))
        csv2 = sorted(p for p in m2.artifacts if p.endswith(".csv"))
        assert csv1 and len(csv1) == len(csv2)
        for a, b in zip(csv1, csv2):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_summary_records_clamp_events(self, tmp_path, monkeypatch):
        integrate = harness.integrate_covariance

        def clamped(*args):
            path = integrate(*args)
            path.clamp_events = 7
            return path

        monkeypatch.setattr(harness, "integrate_covariance", clamped)
        raw = minimal_config(tmp_path, x0=[[0.5, 0.2], [0.1, -0.3]])
        run_cutoff_experiment(validate_config(raw))
        summary = json.loads(open(os.path.join(raw["out_dir"], "cutoff_summary.json")).read())
        assert [run["clamp_events"] for run in summary["runs"]] == [7, 7]

    def test_curve_columns_and_branches(self, tmp_path):
        raw = minimal_config(
            tmp_path,
            epsilons=[1e-4],
            w_grid={"min": -6.0, "max": 6.0, "step": 3.0},
            x0=[[0.2, 0.1]],
        )
        manifest = run_cutoff_experiment(validate_config(raw))
        csv_path = [p for p in manifest.artifacts if p.endswith(".csv")][0]
        rows = open(csv_path).read().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["w", "t", "tv_exact", "D_eps", "Lambda_printed", "Lambda_alt", "tv_empirical"]
        first = dict(zip(header, map(float, rows[1].split(","))))
        last = dict(zip(header, map(float, rows[-1].split(","))))
        assert first["tv_exact"] > 0.99
        assert last["tv_exact"] < 0.05


class TestStationaryPipeline:
    def test_quartic_tv_decays(self, tmp_path):
        raw = {
            "schema_version": 1,
            "model": {
                "force": {"type": "builtin", "name": "quartic_well"},
                "gamma": 1.5,
                "alpha": 2 / 3,
                "beta": 0.75,
            },
            "epsilons": [1e-1, 1e-2],
            "x0": [[0.5, 0.0]],
            "horizon": 20.0,
            "dt": 0.02,
            "n_paths": 8000,
            "seed": 5,
            "out_dir": str(tmp_path / "stat"),
        }
        manifest = run_stationary_check(validate_config(raw))
        assert manifest.passed
        assert manifest.summary["tv_decreasing"]
        assert manifest.summary["c_ratio"] < 2.0


class TestCorpus:
    def test_critical_damping_exercises_jordan_branch(self):
        spec = corpus_spec("lin1d_critical")
        chains, _ = jordan_chains(drift_matrix(spec, np.zeros(1)))
        assert sorted(c.length for c in chains) == [2]

    def test_stable_corpus_builds(self):
        from langmix.harness import STABLE_CORPUS

        for name in STABLE_CORPUS:
            spec = corpus_spec(name)
            assert spec.lam > 0

    def test_tamper_detection(self, harmonic_spec):
        # perturbing the solved covariance must break the residual invariant
        sol = sigma_solution(harmonic_spec)
        A = drift_matrix(harmonic_spec, np.zeros(1))
        J = noise_matrix(1)
        tampered = sol.X + 1e-3 * np.eye(2)
        resid = np.linalg.norm(A @ tampered + tampered @ A.T + J, "fro")
        scale = np.linalg.norm(A, "fro") * np.linalg.norm(tampered, "fro") + np.linalg.norm(J, "fro")
        assert resid > 1e-10 * scale
        assert sol.residual_fro <= 1e-10 * scale


def test_write_csv_fixed_format(tmp_path):
    path = str(tmp_path / "x.csv")
    write_csv(path, ["a", "b"], [(1.0 / 3.0, 1), (2.0, 7)])
    content = open(path).read()
    assert content.splitlines()[0] == "a,b"
    assert "0.33333333333333331" in content


@pytest.mark.slow
def test_verify_suite_all_green(tmp_path):
    manifest = checks.verify_suite(out_dir=str(tmp_path / "verify"))
    failed = [c["name"] for c in manifest.summary["checks"] if not c["passed"]]
    assert manifest.passed, f"failing checks: {failed}"
