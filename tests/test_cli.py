"""The command line: bad input ends in one stderr line and exit code 2, apart from a failed verdict's 1."""

import json

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
