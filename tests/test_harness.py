import copy
import csv
import dataclasses
import json
import os
import re

import numpy as np
import pytest

from langmix import checks, cutoff, gaussian_tv, harness, matrix_eq, simulate
from langmix.cutoff import cutoff_curve, jordan_chains, spectral_data
from langmix.covflow import drift_matrix, noise_matrix
from langmix.errors import ParameterError, StabilityError
from langmix.gaussian_tv import TV_TOL
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
from langmix.simulate import integrate_sde, integrate_sde_runs


_MODEL = {"force": {"type": "linear", "matrix": [[1.0]]}, "gamma": 1.0, "alpha": 2 / 3, "beta": 0.5}


def minimal_config(tmp_path, **overrides):
    raw = {
        "schema_version": 1,
        "model": copy.deepcopy(_MODEL),
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
            {"n_paths": 5},
            {"n_paths": 1.7},
            {"n_paths": True},
            {"horizon": -1.0},
            {"horizon": float("inf")},
            {"dt": float("nan")},
            {"dt": "x"},
            {"epsilons": 0.01},
            {"x0": [0.5, 0.2]},
            {"seed": "abc"},
            {"seed": -1},
            {"mc_curve": "no"},
            {"epsilons": [1e-4, 1e-3, 1e-2]},
            {"epsilons": [1e-2, 1e-2]},
            {"model": dict(_MODEL, gamma="1.0")},
            {"model": dict(_MODEL, gamma=True)},
            {"model": dict(_MODEL, alpha=None)},
            {"model": dict(_MODEL, beta=float("nan"))},
            {"out_dir": 5},
        ],
        ids=[
            "no_max", "no_step", "zero_step", "negative_step", "max_below_min", "infinite_max", "list_w_grid",
            "no_paths", "five_paths", "fractional_paths", "bool_paths", "negative_horizon", "infinite_horizon",
            "nan_dt", "string_dt", "scalar_epsilons", "flat_x0", "string_seed", "negative_seed", "string_mc_curve",
            "increasing_epsilons", "repeated_epsilons", "string_gamma", "bool_gamma", "null_alpha", "nan_beta",
            "int_out_dir",
        ],
    )
    def test_unusable_run_sizes_rejected(self, tmp_path, override):
        with pytest.raises(ParameterError):
            validate_config(minimal_config(tmp_path, **override))

    def test_epsilon_range_enforced(self, tmp_path):
        with pytest.raises(ParameterError, match="epsilon"):
            validate_config(minimal_config(tmp_path, epsilons=[0.7]))

    def test_negative_seed_rejected_as_the_simulators_reject_it(self, tmp_path):
        with pytest.raises(ParameterError, match="seed must be a nonnegative integer") as from_config:
            validate_config(minimal_config(tmp_path, seed=-1))
        with pytest.raises(ParameterError) as from_simulator:
            integrate_sde(corpus_spec("lin1d_complex"), (0.5, 0.0), 0.5, 0.01, 64, seed=-1, epsilon=0.05)
        assert str(from_config.value) == str(from_simulator.value)

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

    def test_refuses_a_potential_unbounded_below(self, tmp_path):
        # U = q^2/2 + 0.001 q^4 - 1e-6 q^6 has U(40) < 0 and no stationary law; a
        # margin sampled in a ball of radius 3 stays >= 0, the exact certificate does not
        raw = minimal_config(tmp_path, x0=[[1.5, 0.0]])
        raw["model"] = harness.corpus_model_config("quartic")
        raw["model"]["force"]["coeffs"] = [0.0, 0.0, 0.5, 0.0, 0.001, 0.0, -1e-6]
        cfg = validate_config(raw)
        with pytest.raises(StabilityError, match="coercivity") as info:
            run_cutoff_experiment(cfg)
        q = float(re.search(r"at q = \[([^\]]+)\]", str(info.value)).group(1))
        alpha = raw["model"]["alpha"]
        u = 0.5 * q**2 + 0.001 * q**4 - 1e-6 * q**6
        du = q + 0.004 * q**3 - 6e-6 * q**5
        assert q * du - alpha * (q * q + u) < 0
        data = json.loads(open(os.path.join(cfg.out_dir, "run_manifest.json")).read())
        assert data["status"] == "failed" and data["passed"] is False
        assert data["summary"]["error"] == {"type": "StabilityError", "message": str(info.value)}

    @pytest.mark.parametrize("x0", [[1.0, 0.0, 0.0], []], ids=["three", "empty"])
    def test_refuses_a_start_of_the_wrong_length(self, tmp_path, x0):
        raw = minimal_config(tmp_path, x0=[x0])
        raw["model"] = harness.corpus_model_config("quartic")
        cfg = validate_config(raw)
        with pytest.raises(ParameterError, match=r"x0 must have shape \(2,\)"):
            run_cutoff_experiment(cfg)
        data = json.loads(open(os.path.join(cfg.out_dir, "run_manifest.json")).read())
        assert data["status"] == "failed"
        assert data["summary"]["error"] == {"type": "ParameterError", "message": "x0 must have shape (2,)"}

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
        integrate = cutoff.integrate_covariance

        def clamped(*args, **kwargs):
            path = integrate(*args, **kwargs)
            path.clamp_events = 7
            return path

        monkeypatch.setattr(cutoff, "integrate_covariance", clamped)
        raw = minimal_config(tmp_path, x0=[[0.5, 0.2], [0.1, -0.3]])
        run_cutoff_experiment(validate_config(raw))
        summary = json.loads(open(os.path.join(raw["out_dir"], "cutoff_summary.json")).read())
        assert [run["clamp_events"] for run in summary["runs"]] == [7, 7]

    def test_the_covariance_path_is_evaluated_only_at_the_window_steps(self, tmp_path, monkeypatch):
        paths = []
        integrate = cutoff.integrate_covariance

        def recorded(*args, **kwargs):
            paths.append(integrate(*args, **kwargs))
            return paths[-1]

        monkeypatch.setattr(cutoff, "integrate_covariance", recorded)
        raw = minimal_config(tmp_path, epsilons=[1e-2, 1e-3], x0=[[0.5, 0.2], [0.1, -0.3]])
        manifest = run_cutoff_experiment(validate_config(raw))
        assert len(paths) == 2
        for run, path in zip(manifest.summary["runs"], paths):
            window = set()
            for eps in raw["epsilons"]:
                with open(os.path.join(raw["out_dir"], f"cutoff_{harness._curve_tag(run['x0'], eps)}.csv")) as fh:
                    window |= {round(float(row["t"]) / raw["dt"]) for row in csv.DictReader(fh)}
            evaluated = np.rint(path.grid / raw["dt"]).astype(int).tolist()
            assert sorted(set(evaluated)) == evaluated and set(evaluated) == window
            assert len(window) >= 10 and run["covariance_points"] == len(window)

    def test_two_starts_that_would_share_a_curve_file_are_refused(self, tmp_path):
        raw = minimal_config(tmp_path, x0=[[0.5, 0.2], [0.1, -0.3], [0.5000001, 0.2]])
        with pytest.raises(ParameterError, match=r"\[0\.5, 0\.2\].*\[0\.5000001, 0\.2\].*cutoff_x0\.5_0\.2_eps0\.01\.csv"):
            run_cutoff_experiment(validate_config(raw))
        assert sorted(os.listdir(raw["out_dir"])) == ["run_manifest.json"]
        manifest = json.loads(open(os.path.join(raw["out_dir"], "run_manifest.json")).read())
        assert manifest["status"] == "failed" and manifest["artifacts"] == []

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

    def test_4d_curve_points_are_exact_within_tolerance(self):
        # the cutoff_lin2d benchmark run: 3 noise levels x 25 window points of a 4-d state
        run = cutoff_curve(corpus_spec("lin2d_rot"), [0.5, 0.5, 0.0, 0.0], [1e-2, 1e-3, 1e-4],
                           {"min": -6.0, "max": 6.0, "step": 0.5}, 0.005)
        results = [tv for curve in run.curves for tv in curve.tv]
        assert len(results) == 75
        assert all(r.kind == "exact" and r.abserr <= TV_TOL for r in results)

    def test_curve_files_keep_the_coordinate_tag_when_it_fits(self, tmp_path):
        manifest = run_cutoff_experiment(validate_config(minimal_config(tmp_path, epsilons=[1e-2, 1e-3])))
        names = sorted(os.path.basename(p) for p in manifest.artifacts if p.endswith(".csv"))
        assert names == ["cutoff_x0.5_0.2_eps0.001.csv", "cutoff_x0.5_0.2_eps0.01.csv"]

    def test_a_start_too_long_for_a_file_name_writes_its_csvs(self, tmp_path):
        # 26 generic coordinates: the coordinate tag gives a 276-byte file
        # name, over the 255-byte limit, so the files take a hashed tag and
        # the summary keeps x0 in full
        n = 13
        chain = 2.5 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        x0 = [-0.1234567 - 0.0111111 * i for i in range(2 * n)]
        raw = minimal_config(tmp_path, x0=[x0], w_grid={"min": -1.0, "max": 1.0, "step": 1.0}, dt=0.05)
        raw["model"] = {"force": {"type": "linear", "matrix": chain.tolist()}, "gamma": 1.0, "alpha": 0.3,
                        "beta": 0.9}
        manifest = run_cutoff_experiment(validate_config(raw))
        (csv_path,) = [p for p in manifest.artifacts if p.endswith(".csv")]
        name = os.path.basename(csv_path)
        assert re.fullmatch(r"cutoff_xsha[0-9a-f]{16}_eps0\.01\.csv", name)
        with open(csv_path) as fh:
            assert fh.readline().startswith("w,t,tv_exact")
        summary = json.loads(open(os.path.join(raw["out_dir"], "cutoff_summary.json")).read())
        assert summary["runs"][0]["x0"] == x0
        assert len(f"cutoff_x{'_'.join(f'{v:g}' for v in x0)}_eps0.01.csv") > 255

    def test_summary_records_the_excluded_paths_of_each_mc_curve_ensemble(self, tmp_path, monkeypatch):
        # the count per epsilon is the one the ensemble reports; without
        # mc_curve there is no ensemble and no count
        def sde_excluding(spec, runs, *args, **kwargs):
            batches = integrate_sde_runs(spec, runs, *args, **kwargs)
            return [dataclasses.replace(batch, excluded=seed) for batch, (_, _, seed, _) in zip(batches, runs)]

        monkeypatch.setattr(harness, "integrate_sde_runs", sde_excluding)
        raw = minimal_config(tmp_path, epsilons=[1e-2, 1e-3], mc_curve=True, n_paths=64)
        manifest = run_cutoff_experiment(validate_config(raw))
        assert [s["excluded"] for s in manifest.summary["runs"][0]["sup_diffs"]] == [3, 4]
        summary = json.loads(open(os.path.join(raw["out_dir"], "cutoff_summary.json")).read())
        assert [s["excluded"] for s in summary["runs"][0]["sup_diffs"]] == [3, 4]
        plain = run_cutoff_experiment(validate_config(dict(raw, mc_curve=False, out_dir=str(tmp_path / "plain"))))
        assert all("excluded" not in s for s in plain.summary["runs"][0]["sup_diffs"])

    def test_a_curve_without_window_points_fails_the_run(self, tmp_path):
        # the window sits before t_floor at eps = 1e-2, so that curve is empty
        # and its sup-diff of 0.0 is no evidence of the profile
        raw = minimal_config(tmp_path, model=harness.corpus_model_config("lin1d_real"), x0=[[0.6, 0.4]],
                             epsilons=[1e-2, 1e-3], w_grid={"min": -9.5, "max": -8.0, "step": 0.5}, seed=0)
        manifest = run_cutoff_experiment(validate_config(raw))
        with open(tmp_path / "out" / "cutoff_x0.6_0.4_eps0.01.csv") as fh:
            assert fh.read().splitlines() == ["w,t,tv_exact,D_eps,Lambda_printed,Lambda_alt,tv_empirical"]
        entries = manifest.summary["runs"][0]["sup_diffs"]
        assert [s["window_points"] for s in entries] == [0, 1]
        assert [s["sup_diff"] for s in entries] == [0.0, 0.0]
        assert manifest.summary["runs"][0]["sup_diff_monotone"]
        assert manifest.passed is False

    def test_a_window_before_the_first_step_writes_empty_curves(self, tmp_path):
        # t_max = t_mix + w_grid max + 1 = 5.12 - 29 + 1 is below dt
        raw = minimal_config(tmp_path, model=harness.corpus_model_config("lin1d_real"), x0=[[0.6, 0.4]],
                             w_grid={"min": -30.0, "max": -29.0, "step": 0.5}, dt=0.01)
        manifest = run_cutoff_experiment(validate_config(raw))
        assert (manifest.status, manifest.passed) == ("done", False)
        with open(tmp_path / "out" / "cutoff_x0.6_0.4_eps0.01.csv") as fh:
            assert fh.read().splitlines() == ["w,t,tv_exact,D_eps,Lambda_printed,Lambda_alt,tv_empirical"]
        run = manifest.summary["runs"][0]
        assert run["covariance_points"] == 0 and [s["window_points"] for s in run["sup_diffs"]] == [0]

    @pytest.mark.parametrize("mc_curve", [False, True], ids=["exact_only", "mc_curve"])
    def test_manifest_records_the_seconds_of_each_stage(self, tmp_path, mc_curve):
        raw = minimal_config(tmp_path, x0=[[0.5, 0.2], [0.1, -0.3]], mc_curve=mc_curve, n_paths=64)
        manifest = run_cutoff_experiment(validate_config(raw))
        with open(manifest.path()) as fh:
            data = json.load(fh)
        names = [(x0, n) for x0 in raw["x0"] for n in ("spectral", "covariance", "tv")]
        if mc_curve:
            names += [(None, "mc_ensembles")] + [(x0, "mc_curve") for x0 in raw["x0"]]
        assert [(s["x0"], s["name"]) for s in data["stages"]] == names
        seconds = [s["seconds"] for s in data["stages"]]
        assert min(seconds) >= 0.0 and sum(seconds) <= data["wall_clock"]
        assert "stages" not in data["summary"]

    def test_one_kernel_loop_steps_every_mc_curve_ensemble(self, tmp_path, monkeypatch):
        # two starts and two epsilons: four ensembles, one _run_ensemble call
        calls = _count_calls(monkeypatch, simulate, "_run_ensemble")
        raw = minimal_config(tmp_path, x0=[[0.5, 0.2], [0.1, -0.3]], epsilons=[1e-2, 1e-3], mc_curve=True,
                             n_paths=64)
        manifest = run_cutoff_experiment(validate_config(raw))
        assert len(calls) == 1 and [n_paths for n_paths, *_ in calls[0][0]] == [64] * 4
        last_steps = [n_steps for _, _, n_steps, *_ in calls[0][0]]
        (stage,) = [s for s in manifest.stages if s["name"] == "mc_ensembles"]
        assert stage["x0"] is None and stage["loop_steps"] == max(last_steps)
        assert stage["path_steps"] == 64 * sum(last_steps)
        assert len(set(last_steps)) > 1

    def test_ensembles_beyond_one_loop_step_a_loop_at_a_time_with_the_same_outputs(self, tmp_path, monkeypatch):
        # four ensembles two to a loop: two _run_ensemble calls, and the
        # files and summary of the run that steps them in one loop
        raw = minimal_config(tmp_path / "one", x0=[[0.5, 0.2], [0.1, -0.3]], epsilons=[1e-2, 1e-3],
                             mc_curve=True, n_paths=64)
        one = run_cutoff_experiment(validate_config(raw))
        monkeypatch.setattr(harness, "runs_per_loop", lambda n_paths: 2)
        calls = _count_calls(monkeypatch, simulate, "_run_ensemble")
        two = run_cutoff_experiment(validate_config(dict(raw, out_dir=str(tmp_path / "two"))))
        last_steps = [[n_steps for _, _, n_steps, *_ in call[0]] for call in calls]
        assert [len(steps) for steps in last_steps] == [2, 2]
        (stage,) = [s for s in two.stages if s["name"] == "mc_ensembles"]
        assert stage["loop_steps"] == sum(map(max, last_steps)) < sum(map(sum, last_steps))
        assert stage["path_steps"] == 64 * sum(map(sum, last_steps))
        assert two.summary == one.summary and len(one.artifacts) == len(two.artifacts) == 5
        for a, b in zip(one.artifacts, two.artifacts):
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert os.path.basename(a) == os.path.basename(b) and fa.read() == fb.read()

    def test_summary_records_the_window_points_and_the_tv_labels(self, tmp_path):
        raw = minimal_config(tmp_path, epsilons=[1e-2, 1e-3])
        manifest = run_cutoff_experiment(validate_config(raw))
        for s in manifest.summary["runs"][0]["sup_diffs"]:
            with open(tmp_path / "out" / f"cutoff_x0.5_0.2_eps{s['epsilon']:g}.csv") as fh:
                assert s["window_points"] == len(fh.read().splitlines()) - 1 > 0
            assert s["tv_inexact"] == 0 and 0.0 <= s["tv_max_abserr"] <= TV_TOL

    def test_summary_counts_a_tv_estimate(self, tmp_path, monkeypatch):
        # one curve point comes back as an estimate: its value still fills
        # the tv_exact cell, and the summary says so
        calls = []

        def one_estimate(*args, **kwargs):
            res = cutoff_tv(*args, **kwargs)
            calls.append(res)
            if len(calls) == 2:
                res = gaussian_tv.TVResult(value=res.value, kind="estimate", abserr=3e-6)
            return res

        cutoff_tv = cutoff.tv_gaussian
        monkeypatch.setattr(cutoff, "tv_gaussian", one_estimate)
        raw = minimal_config(tmp_path, epsilons=[1e-2, 1e-3])
        manifest = run_cutoff_experiment(validate_config(raw))
        summary = json.loads((tmp_path / "out" / "cutoff_summary.json").read_text())
        for run in (manifest.summary["runs"][0], summary["runs"][0]):
            first, second = run["sup_diffs"]
            assert (first["tv_inexact"], first["tv_max_abserr"]) == (1, 3e-6)
            assert second["tv_inexact"] == 0 and second["tv_max_abserr"] <= TV_TOL

    def test_summary_records_the_jordan_diagnostics(self, tmp_path):
        raw = minimal_config(tmp_path, x0=[[0.6, 0.3]], model=harness.corpus_model_config("lin1d_critical"))
        manifest = run_cutoff_experiment(validate_config(raw))
        sd = spectral_data(corpus_spec("lin1d_critical"), np.array([0.6, 0.3]))
        summary = json.loads((tmp_path / "out" / "cutoff_summary.json").read_text())
        for run in (manifest.summary["runs"][0], summary["runs"][0]):
            assert (run["jordan_flagged"], run["generic_x"]) == (sd.flagged, sd.generic_x)

    def test_critical_damping_window_is_exact_where_gil_pelaez_alone_is_not(self, tmp_path, monkeypatch):
        # lin1d_critical's Jordan block over eps = 1e-2 .. 1e-8 on the default w-grid:
        # at 8 window points the Gil-Pelaez head alone misses TV_TOL, and tv_gaussian
        # answers them exactly from the Bhattacharyya coefficient instead
        calls = []

        def recording_tv(g1, g2, method="cdf_quadrature"):
            calls.append((g1, g2, cutoff_tv(g1, g2, method=method)))
            return calls[-1][2]

        cutoff_tv = cutoff.tv_gaussian
        monkeypatch.setattr(cutoff, "tv_gaussian", recording_tv)
        epsilons = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]
        raw = minimal_config(tmp_path, x0=[[0.6, 0.3]], model=harness.corpus_model_config("lin1d_critical"),
                             epsilons=epsilons, dt=0.005)
        del raw["w_grid"]
        run_cutoff_experiment(validate_config(raw))
        points = []
        for eps in epsilons:
            with open(tmp_path / "out" / f"cutoff_x0.6_0.3_eps{eps:g}.csv") as fh:
                points += [(eps, round(float(row["t"]) / 0.005)) for row in csv.DictReader(fh)]
        assert len(points) == len(calls) == 327
        assert all(res.kind == "exact" for _, _, res in calls)
        missed = {}
        for point, (g1, g2, res) in zip(points, calls):
            if gaussian_tv._tv_gil_pelaez(*gaussian_tv._llr_terms(*gaussian_tv._whiten(g1, g2)))[1] > TV_TOL:
                missed[point] = res
        assert set(missed) == {(1e-6, 627), (1e-6, 677), (1e-7, 890), (1e-7, 940), (1e-7, 990),
                               (1e-8, 1148), (1e-8, 1198), (1e-8, 1248)}
        assert all((res.value, res.abserr) == (1.0, 0.0) for res in missed.values())


class TestStationaryPipeline:
    def test_refuses_more_than_one_start(self, tmp_path):
        # the check runs every ensemble from one start; a second one is not silently dropped
        raw = minimal_config(tmp_path, x0=[[0.5, 0.0], [3.0, 1.0]], horizon=0.5, n_paths=64)
        cfg = validate_config(raw)
        with pytest.raises(ParameterError, match="exactly one x0 point; got 2"):
            run_stationary_check(cfg)
        data = json.loads(open(os.path.join(cfg.out_dir, "run_manifest.json")).read())
        assert data["status"] == "failed" and data["passed"] is False
        assert data["summary"]["error"]["type"] == "ParameterError"
        assert not os.path.exists(os.path.join(cfg.out_dir, "stationary_check.csv"))

    def test_refuses_a_horizon_shorter_than_one_step(self, tmp_path):
        # round(0.001 / 0.02) = 0 steps would compare the unmoved start cloud with the Gibbs law
        raw = minimal_config(tmp_path, x0=[[0.5, 0.0]], horizon=0.001, dt=0.02, n_paths=2000)
        raw["model"] = harness.corpus_model_config("quartic")
        cfg = validate_config(raw)
        with pytest.raises(ParameterError, match=r"horizon 0.001 and dt 0.02 give round\(horizon / dt\) = 0 steps"):
            run_stationary_check(cfg)
        data = json.loads(open(os.path.join(cfg.out_dir, "run_manifest.json")).read())
        assert data["status"] == "failed" and data["passed"] is False
        assert data["summary"]["error"]["type"] == "ParameterError"
        assert not os.path.exists(os.path.join(cfg.out_dir, "stationary_check.csv"))

    def test_quartic_tv_decays(self, tmp_path):
        raw = {
            "schema_version": 1,
            "model": {
                "force": {"type": "polynomial_gradient", "coeffs": [0.0, 0.0, 0.5, 0.0, 0.25]},
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
        assert manifest.summary["excluded"] == [0, 0]

    def test_manifest_records_the_seconds_of_each_stage(self, tmp_path):
        raw = minimal_config(tmp_path, epsilons=[1e-1, 1e-2], horizon=0.5, n_paths=64)
        raw["model"] = harness.corpus_model_config("quartic")
        manifest = run_stationary_check(validate_config(raw))
        with open(manifest.path()) as fh:
            data = json.load(fh)
        names = [(eps, n) for eps in raw["epsilons"] for n in ("ensemble", "tv_momentmatch", "tv_knn")]
        assert [(s["epsilon"], s["name"]) for s in data["stages"]] == names
        assert [s.get("path_steps") for s in data["stages"]] == [64 * 50, None, None] * 2
        seconds = [s["seconds"] for s in data["stages"]]
        assert min(seconds) >= 0.0 and sum(seconds) <= data["wall_clock"]
        assert "stages" not in data["summary"]

    def test_stationary_summary_counts_the_excluded_paths(self, tmp_path, monkeypatch):
        # the count per epsilon is the one the ensemble reports, and the CSV does not carry it
        def sde_excluding(*args, seed, **kwargs):
            batch = integrate_sde(*args, seed=seed, **kwargs)
            return dataclasses.replace(batch, excluded=seed)

        monkeypatch.setattr(harness, "integrate_sde", sde_excluding)
        raw = minimal_config(tmp_path, epsilons=[1e-1, 1e-2], horizon=0.5, n_paths=64)
        raw["model"] = harness.corpus_model_config("quartic")
        manifest = run_stationary_check(validate_config(raw))
        assert manifest.summary["excluded"] == [3, 4]
        data = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert data["summary"]["excluded"] == [3, 4]
        with open(tmp_path / "out" / "stationary_check.csv") as fh:
            assert "excluded" not in fh.readline()


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

    @pytest.mark.parametrize("name", harness.STABLE_CORPUS)
    def test_corpus_passes_the_gate_with_an_exact_verdict(self, name):
        assert harness._gate_stability(corpus_spec(name))["kind"] in ("linear", "certified")

    def test_the_gate_samples_nothing(self):
        assert not hasattr(harness, "check_assumption_main")

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
