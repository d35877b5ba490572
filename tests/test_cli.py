"""The command line: bad input ends in one stderr line and exit code 2, a failed verdict in 1,
an indeterminate linear verdict in 3, and a closed stdout quietly in 141."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from langmix import cli
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
