"""Tests for the command-line interface."""

import inspect
import re
from pathlib import Path

import pytest

from repro.cli import ARTIFACTS, COMMANDS, EXPERIMENTS, _dispatch, main


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
    # `all --out DIR` writes one <name>.txt per artifact: exactly the
    # committed tables
    results = Path(__file__).resolve().parents[1] / "results"
    assert set(ARTIFACTS) == {path.stem for path in results.glob("*.txt")}


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


# ---------------------------------------------------------------------------
# replay / shrink: one pair of commands for cell and litmus bundles
# ---------------------------------------------------------------------------

def _cell_bundle(tmp_path, policy):
    """SPM_G under a blackout plan: Baseline deadlocks, AWG completes."""
    from dataclasses import replace

    from repro.core.policies import named_policy
    from repro.experiments.matrix import RunRequest
    from repro.experiments.runner import QUICK_SCALE
    from repro.faults.plan import named_plan
    from repro.recovery.bundle import make_bundle, write_bundle

    scenario = replace(QUICK_SCALE, fault_plan=named_plan("blackout", seed=3))
    request = RunRequest("SPM_G", named_policy(policy), scenario,
                         validate=False)
    bundle = make_bundle(request, expected={
        "mode": "diagnosis", "signature": {"kind": "deadlock"}})
    return str(write_bundle(bundle, tmp_path))


def _litmus_bundle(tmp_path, policy):
    """LIT_HANDOFF_LOSS: OBE violated under Baseline, not under AWG."""
    from repro.core.policies import named_policy
    from repro.litmus.shrinklink import LitmusRequest
    from repro.recovery.bundle import make_bundle, write_bundle
    from repro.workloads.litmus import get_litmus

    request = LitmusRequest(program=get_litmus("LIT_HANDOFF_LOSS"),
                            policy=named_policy(policy), seed=1)
    bundle = make_bundle(request, expected={
        "mode": "model-violation", "model": "OBE"})
    return str(write_bundle(bundle, tmp_path))


@pytest.mark.parametrize("make", [_cell_bundle, _litmus_bundle],
                         ids=["cell", "litmus"])
def test_replay_command_exit_status(make, tmp_path, capsys):
    assert main(["replay", make(tmp_path / "hit", "baseline")]) == 0
    assert "REPRODUCED" in capsys.readouterr().out
    assert main(["replay", make(tmp_path / "miss", "awg")]) == 1
    assert "NOT reproduced" in capsys.readouterr().err


def test_shrink_command_writes_loadable_litmus_bundle(tmp_path, capsys):
    from repro.litmus.shrinklink import LitmusRequest
    from repro.recovery.bundle import LITMUS_BUNDLE_KIND, load_bundle

    source = _litmus_bundle(tmp_path / "in", "baseline")
    out = tmp_path / "out"
    assert main(["shrink", source, "--out", str(out)]) == 0
    written = list(out.glob("*.json"))
    assert len(written) == 1
    assert str(written[0]) in capsys.readouterr().out
    minimal = load_bundle(written[0])
    assert minimal["kind"] == LITMUS_BUNDLE_KIND
    assert (LitmusRequest.from_spec(minimal["request"]).size()
            < LitmusRequest.from_spec(load_bundle(source)["request"]).size())


def test_litmus_replay_subcommand_is_gone(tmp_path):
    bundle = _litmus_bundle(tmp_path, "baseline")
    with pytest.raises(SystemExit) as exc:
        main(["litmus", "replay", bundle])
    assert exc.value.code == 2


def test_replay_trace_rejects_litmus_bundle(tmp_path, capsys):
    bundle = _litmus_bundle(tmp_path, "baseline")
    with pytest.raises(SystemExit) as exc:
        main(["replay", bundle, "--trace"])
    assert exc.value.code == 2
    assert "trace" in capsys.readouterr().err
