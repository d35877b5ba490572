"""The command line: bad input ends in one stderr line and exit code 2, a failed verdict in 1,
an indeterminate linear verdict in 3, and a closed stdout quietly in 141."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from langmix import checks, cli
from langmix.errors import InternalCheckError
from langmix.harness import corpus_model_config


@pytest.fixture
def quartic_config(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"schema_version": 1, "seed": 0, "model": corpus_model_config("quartic")}))
    return str(path)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--x", "", "--epsilon", "0.01"], "could not convert string to float: ''"),
        (["--x", "1,0,0", "--epsilon", "0.01"], "x0 must have shape (2,)"),
        (["--x", "1.5,0", "--epsilon", "0.7"], "epsilon must lie in (0, 1/2)"),
    ],
    ids=["empty_start", "start_of_the_wrong_length", "epsilon_above_one_half"],
)
def test_bad_mixing_time_input_exits_2_with_one_line(quartic_config, capsys, flags, message):
    assert cli.main(["mixing-time", "--config", quartic_config, *flags]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"langmix mixing-time: error: {message}") and out.err.count("\n") == 1


@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
def test_unreadable_config_exits_2_with_one_line(tmp_path, capsys, content):
    path = tmp_path / "model.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["mixing-time", "--config", str(path), "--x", "1.5,0", "--epsilon", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("langmix mixing-time: error: ") and err.count("\n") == 1


def test_good_input_exits_0(quartic_config, capsys):
    assert cli.main(["mixing-time", "--config", quartic_config, "--x", "1.5,0", "--epsilon", "0.01"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"eta", "nu", "tau", "t_mix"}


def test_runtime_errors_keep_their_traceback(quartic_config, monkeypatch):
    def disagree(*args):
        raise InternalCheckError("two routes disagree")

    monkeypatch.setattr(cli, "spectral_data", disagree)
    with pytest.raises(InternalCheckError):
        cli.main(["mixing-time", "--config", quartic_config, "--x", "1.5,0", "--epsilon", "0.01"])


def test_indeterminate_linear_verdict_exits_3(tmp_path, capsys):
    # M = 0 puts the spectrum on the boundary of the stability region
    path = tmp_path / "m.txt"
    path.write_text("0.0\n")
    assert cli.main(["analyze-linear", "--matrix", str(path), "--gamma", "1.0"]) == 3
    out = capsys.readouterr()
    assert json.loads(out.out)["indeterminate"] is True and out.err == ""


def test_stationary_check_with_two_starts_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1, "seed": 0, "model": corpus_model_config("lin1d_complex"), "epsilons": [1e-1],
        "x0": [[0.5, 0.0], [3.0, 1.0]], "horizon": 0.5, "n_paths": 64, "out_dir": str(tmp_path / "out"),
    }))
    assert cli.main(["stationary-check", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("langmix stationary-check: error: ") and err.count("\n") == 1
    assert "got 2" in err
    assert json.loads((tmp_path / "out" / "run_manifest.json").read_text())["status"] == "failed"


def test_missing_matrix_file_exits_2(tmp_path, capsys):
    assert cli.main(["analyze-linear", "--matrix", str(tmp_path / "nope.txt"), "--gamma", "1.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("langmix analyze-linear: error: ") and err.count("\n") == 1


def test_closed_stdout_exits_141_quietly(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1.0\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "langmix.cli", "analyze-linear", "--matrix", str(path), "--gamma", "3.0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the command writes its first byte
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert err == b""


def _write_config(tmp_path, **raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict({"schema_version": 1, "seed": 0, "model": corpus_model_config("lin1d_complex")},
                                    **raw)))
    return str(path)


def test_stationary_cov_prints_sigma_and_its_certificate(tmp_path, capsys):
    assert cli.main(["stationary-cov", "--config", _write_config(tmp_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"sigma", "residual_fro", "min_eig", "certified_pd"}
    assert len(out["sigma"]) == 2 and out["min_eig"] > 0


def test_cov_flow_writes_one_row_per_output_step(tmp_path, capsys):
    out = tmp_path / "flow.csv"
    args = ["cov-flow", "--config", _write_config(tmp_path), "--x0", "0.5,0.2", "--t-end", "0.5", "--dt", "0.1",
            "--out", str(out)]
    assert cli.main(args) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,sigma_00,sigma_01,sigma_10,sigma_11,gap_fro"
    assert len(rows) == 1 + 6
    assert capsys.readouterr().out == f"wrote {out} (6 rows, 0 clamp events)\n"


def test_simulate_writes_paths_times_rows(tmp_path, capsys):
    out = tmp_path / "paths.csv"
    args = ["simulate", "--model", _write_config(tmp_path), "--epsilon", "0.1", "--paths", "3", "--seed", "0",
            "--x0", "0.5,0.2", "--t-end", "0.2", "--dt", "0.05", "--store-every", "2", "--out", str(out)]
    assert cli.main(args) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "path_id,t,q0,p0"
    assert len(rows) == 1 + 3 * 3  # 3 paths at t = 0, 0.1, 0.2
    assert capsys.readouterr().out == f"wrote {out} (3 paths, excluded 0)\n"


@pytest.mark.parametrize("w_grid, code", [({"min": -1.0, "max": 1.0, "step": 1.0}, 0),
                                          ({"min": -9.5, "max": -8.0, "step": 0.5}, 1)],
                         ids=["passing", "empty_window"])
def test_cutoff_curve_exit_code_follows_passed(tmp_path, capsys, w_grid, code):
    out_dir = tmp_path / "out"
    cfg = _write_config(tmp_path, model=corpus_model_config("lin1d_real"), epsilons=[1e-2, 1e-3],
                        x0=[[0.6, 0.4]], w_grid=w_grid, dt=0.01, out_dir=str(out_dir))
    assert cli.main(["cutoff-curve", "--config", cfg]) == code
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is (code == 0)
    assert sorted(os.path.basename(p) for p in out["artifacts"]) == [
        "cutoff_summary.json", "cutoff_x0.6_0.4_eps0.001.csv", "cutoff_x0.6_0.4_eps0.01.csv"]
    assert all(os.path.isfile(p) for p in out["artifacts"])


def test_verify_prints_a_fail_line_and_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checks, "CHECKS", {"fake.holds": lambda: checks.CheckResult(True, 0.5, "fine"),
                                          "fake.breaks": lambda: checks.CheckResult(False, -2.0, "broken")})
    assert cli.main(["verify", "--out-dir", str(tmp_path / "verify")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] fake.holds: margin=0.5 fine",
        "[FAIL] fake.breaks: margin=-2 broken",
        "verify: FAILURES PRESENT",
    ]
    assert (tmp_path / "verify" / "verify_report.csv").is_file()
