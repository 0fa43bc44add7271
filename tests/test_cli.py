"""Tests for the command-line interface."""

import inspect
import re

import pytest

from repro.cli import COMMANDS, EXPERIMENTS, _dispatch, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig14" in out
    assert "SPM_G" in out
    assert "awg" in out
    assert "faults" in out
    assert "chaos" in out  # fault plans are listed too
    assert "_HANG" not in out  # stress drills never surface


def test_faults_command(capsys):
    assert main(["faults", "--smoke", "--no-cache", "--jobs", "2",
                 "--plans", "calm,blackout", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Fault campaign (seed=3" in out
    assert "IFP contract held" in out
    assert "DEADLOCK" in out  # Baseline under blackout


def test_faults_command_unknown_plan():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError, match="unknown fault plan"):
        main(["faults", "--smoke", "--no-cache", "--plans", "earthquake"])


def test_experiment_registry_covers_all_artifacts():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "fig5", "fig7", "fig8", "fig9", "fig11",
        "fig13", "fig14", "fig15",
    }


def test_command_help_names_every_dispatched_command(capsys):
    dispatched = re.findall(r'opts\.command == "(\w+)"',
                            inspect.getsource(_dispatch))
    assert sorted(dispatched) == sorted(COMMANDS)
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for name in (*EXPERIMENTS, *COMMANDS):
        assert name in help_text


def test_unknown_command_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "unknown command 'bench'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["fabric"])
    assert exc.value.code == 2
    assert "unknown command 'fabric'" in capsys.readouterr().err


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    assert "Compute Units" in capsys.readouterr().out


def test_fig5_command(capsys):
    assert main(["fig5", "--quick"]) == 0
    assert "context KB" in capsys.readouterr().out


def test_run_command(capsys):
    assert main(["run", "SPM_G", "awg", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "completed" in out
    assert "cycles" in out


def test_trace_command_writes_valid_trace(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["trace", "FAM_G", "awg", "--quick",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "completed" in text
    assert "perfetto" in text
    assert out.exists()

    from repro.trace.export import validate_trace_file
    assert validate_trace_file(out) == []


def test_trace_command_category_filter(tmp_path):
    import json

    out = tmp_path / "wg.json"
    assert main(["trace", "SPM_G", "monnr-one", "--quick",
                 "--categories", "wg,sync", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["awg"]["categories"] == ["wg", "sync"]
    cats = {ev["cat"] for ev in doc["traceEvents"] if "cat" in ev}
    assert cats <= {"wg", "sync"}


def test_trace_command_needs_benchmark():
    with pytest.raises(SystemExit):
        main(["trace"])


def test_run_command_needs_two_args():
    with pytest.raises(SystemExit):
        main(["run", "SPM_G"])


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_run_unknown_policy():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        main(["run", "SPM_G", "bogus", "--quick"])
