"""Tests for the command-line interface."""

import re
import shlex
import signal
from pathlib import Path

import pytest

from repro.cli import ARTIFACTS, EXPERIMENTS, _parser, main
from repro.core.policies import all_policy_names
from repro.experiments import run_benchmark


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig14" in out
    assert "SPM_G" in out
    assert "awg" in out
    assert "faults" in out
    assert "chaos" in out  # fault plans are listed too
    assert "_RACY" not in out  # stress drills never surface
    policies = next(line for line in out.splitlines()
                    if line.startswith("policies:"))
    for key in all_policy_names():
        assert key in policies.split(":", 1)[1].replace(",", " ").split()


def test_faults_command(capsys):
    # the full quick campaign, seed 1: 2 benchmarks x 5 policies x every
    # named plan, judged against the IFP contract
    from repro.faults.plan import plan_names

    assert main(["faults", "--quick", "--no-cache", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "Fault campaign (seed=1" in out
    assert "IFP contract held" in out
    assert "DEADLOCK" in out  # Baseline under the WG-evicting plans
    assert f"{2 * 5 * len(plan_names())} cells" in out


def test_faults_command_unknown_plan():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError, match="unknown fault plan"):
        main(["faults", "--quick", "--no-cache", "--plans", "earthquake"])


def test_experiment_registry_covers_all_artifacts():
    assert set(EXPERIMENTS) == {
        "table1", "table2", "fig5", "fig7", "fig8", "fig9", "fig11",
        "fig13", "fig14", "fig15",
    }
    # `all --out DIR` writes one <name>.txt per artifact: exactly the
    # committed tables
    results = Path(__file__).resolve().parents[1] / "results"
    assert set(ARTIFACTS) == {path.stem for path in results.glob("*.txt")}


def _listed_commands(capsys):
    assert main(["list"]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("commands:"))
    return line.split(":", 1)[1].replace(",", " ").split()


def test_command_help_names_every_dispatched_command(capsys):
    # `list` and `--help` name the same commands
    commands = _listed_commands(capsys)
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^    (\w+)", capsys.readouterr().out, re.M)
    assert listed == [*EXPERIMENTS, *commands]


def test_unknown_command_is_rejected(capsys):
    # removed commands stay rejected: bench (now `all`), fabric, matrix
    # (the result cache resumes interrupted sweeps now), and sanitize and
    # trace (now `run --sanitize` and `run --trace`)
    for name in ("bench", "fabric", "matrix", "sanitize", "trace"):
        with pytest.raises(SystemExit) as exc:
            main([name])
        assert exc.value.code == 2
        assert f"invalid choice: {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, interrupt, code, note", [
    (["table1"], KeyboardInterrupt(signal.SIGTERM), 143,
     "interrupted by SIGTERM"),
    (["fig7"], KeyboardInterrupt(signal.SIGTERM), 143,
     "interrupted by SIGTERM; a re-run resumes from the result cache"),
    (["fig7", "--no-cache"], KeyboardInterrupt(), 130,
     "interrupted by SIGINT; a re-run starts over"),
], ids=["no-sweep", "sweep", "sweep-no-cache"])
def test_interrupt_exits_128_plus_signum_with_one_line(argv, interrupt, code,
                                                       note, monkeypatch,
                                                       capsys):
    """SIGTERM reaches a command as ``KeyboardInterrupt(signum)``, Ctrl-C
    as a bare ``KeyboardInterrupt``; a sweeping command's line says
    whether a re-run resumes."""
    def interrupted(_names, _opts):
        raise interrupt

    monkeypatch.setattr("repro.cli._run_artifacts", interrupted)
    handler = signal.getsignal(signal.SIGTERM)
    assert main(argv) == code
    assert capsys.readouterr().err.strip() == note
    assert signal.getsignal(signal.SIGTERM) == handler  # restored


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


def _captured_scenarios(monkeypatch):
    """Record the scenario of every run the CLI starts."""
    import repro.cli as cli

    seen = []

    def capture(bench, policy, scenario, **kw):
        seen.append(scenario)
        return run_benchmark(bench, policy, scenario, **kw)

    monkeypatch.setattr(cli, "run_benchmark", capture)
    return seen


@pytest.mark.parametrize("mode", [[], ["--sanitize"], ["--trace"]],
                         ids=["plain", "sanitize", "trace"])
def test_run_seed_reaches_the_scenario(mode, monkeypatch, tmp_path, capsys):
    seen = _captured_scenarios(monkeypatch)
    assert main(["run", "SPM_G", "awg", "--quick", "--seed", "7",
                 "--out", str(tmp_path / "t.json"), *mode]) == 0
    assert [(s.label, s.seed) for s in seen] == [("quick", 7)]


@pytest.mark.parametrize("mode", [[], ["--sanitize"], ["--trace"]],
                         ids=["plain", "sanitize", "trace"])
def test_run_oversubscribed_means_the_same_in_every_mode(
        mode, monkeypatch, tmp_path, capsys):
    from repro.experiments import QUICK_OVERSUBSCRIBED

    seen = _captured_scenarios(monkeypatch)
    assert main(["run", "SPM_G", "--quick", "--oversubscribed",
                 "--out", str(tmp_path / "t.json"), *mode]) == 0
    assert seen == [QUICK_OVERSUBSCRIBED]
    assert "under AWG [quick-oversubscribed]" in capsys.readouterr().out


def test_run_takes_one_mode():
    with pytest.raises(SystemExit):
        main(["run", "SPM_G", "--quick", "--sanitize", "--trace"])


def test_trace_command_writes_valid_trace(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["run", "FAM_G", "awg", "--quick", "--trace",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "completed" in text
    assert "perfetto" in text
    import json

    from repro.trace.export import validate_chrome_trace
    assert validate_chrome_trace(json.loads(out.read_text())) == []


def test_trace_command_fails_on_invalid_export(tmp_path, monkeypatch,
                                               capsys):
    from repro.trace.tracer import Tracer

    export = Tracer.export_chrome

    def broken_export(self, label=None):
        doc = export(self, label=label)
        doc["traceEvents"].append({"ph": "Z"})
        return doc

    monkeypatch.setattr(Tracer, "export_chrome", broken_export)
    out = tmp_path / "bad.json"
    assert main(["run", "FAM_G", "awg", "--quick", "--trace",
                 "--out", str(out)]) == 1
    assert "INVALID trace" in capsys.readouterr().err


def test_trace_command_category_filter(tmp_path):
    import json

    out = tmp_path / "wg.json"
    assert main(["run", "SPM_G", "monnr-one", "--quick", "--trace",
                 "--categories", "wg,sync", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["awg"]["categories"] == ["wg", "sync"]
    cats = {ev["cat"] for ev in doc["traceEvents"] if "cat" in ev}
    assert cats <= {"wg", "sync"}


def test_trace_command_needs_benchmark():
    with pytest.raises(SystemExit):
        main(["run", "--trace"])


def test_run_command_needs_a_benchmark():
    for args in ([], ["SPM_G", "awg", "extra"]):
        with pytest.raises(SystemExit):
            main(["run", *args])


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
    from repro.litmus.corpus import get_litmus
    from repro.litmus.shrinklink import LitmusRequest
    from repro.recovery.bundle import make_bundle, write_bundle

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


@pytest.mark.parametrize("count", [0, 3])
def test_litmus_generate_prints_the_requested_count(count, capsys):
    import json

    assert main(["litmus", "generate", "--programs", str(count)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == count


def test_replay_trace_rejects_litmus_bundle(tmp_path, capsys):
    bundle = _litmus_bundle(tmp_path, "baseline")
    with pytest.raises(SystemExit) as exc:
        main(["replay", bundle, "--trace"])
    assert exc.value.code == 2
    assert "trace" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one grammar per command
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    "table1 --seed 7",
    "fig14 --quick --seed 7",
    "cache --sanitize",
    "analyze --quick",
    "run SPM_G --quick --jobs 2",
    "run SPM_G --quick --plans chaos",
    "timeline --json",
    "lint --format json",
    "litmus --quick",
])
def test_flag_its_command_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parents[1]


def _documented_invocations():
    """Every ``python -m repro`` / ``awg-repro`` command line in README's
    bash blocks, the Makefile's recipes, the CI workflow and the CLI's
    own usage docstring: ``(where, argv)`` pairs."""
    import repro.cli

    readme = ROOT / "README.md"
    sources = [
        (readme.name, "\n".join(re.findall(r"```bash\n(.*?)```",
                                           readme.read_text(), re.S))),
        ("Makefile", (ROOT / "Makefile").read_text()),
        ("ci.yml", (ROOT / ".github/workflows/ci.yml").read_text()),
        ("cli.py", repro.cli.__doc__),
    ]
    found = []
    for where, text in sources:
        text = text.replace("\\\n", " ")
        for line in text.splitlines():
            match = re.match(r"\s*(?:run: )?(?:python|\$\(PY\)) -m repro "
                             r"|\s*awg-repro ", line)
            if match:
                command = line[match.end():].split(" #")[0].split("|")[0]
                found.append((where, shlex.split(command)))
    return found


def test_every_documented_invocation_parses():
    invocations = _documented_invocations()
    assert {where for where, _ in invocations} == {
        "README.md", "Makefile", "ci.yml", "cli.py"}
    parser = _parser()
    for where, argv in invocations:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{where}: `{' '.join(argv)}` does not parse")


def _leaf_flags(parser, prefix=""):
    """``{command: its long flags}`` for every leaf (sub)command."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            out = {}
            for name, sub in action.choices.items():
                out.update(_leaf_flags(sub, f"{prefix}{name} "))
            return out
    return {prefix.strip(): {option for a in parser._actions
                             for option in a.option_strings
                             if option.startswith("--") and option != "--help"}}


def test_readme_flag_table_matches_the_parser():
    leaves = _leaf_flags(_parser())
    table = (ROOT / "README.md").read_text().split(
        "| command | flags |\n")[1].split("\n\n")[0]
    rows = re.findall(r"^\| (`[^|]*) \| (.*) \|$", table, re.M)
    documented = set()
    for commands, flags in rows:
        for cell in re.findall(r"`([^`]+)`", commands):
            name = " ".join(word for word in cell.split() if word.islower())
            assert leaves[name] == set(re.findall(r"`(--[\w-]+)", flags)), name
            documented.add(name)
    assert set(leaves) - documented <= set(EXPERIMENTS)
