"""Static kernel linter: per-rule fixtures, suppression, CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis.findings import SEVERITIES, Finding
from repro.analysis.linter import (
    DEFAULT_PATHS,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import RULES
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

ALL_RULES = (
    "missing-yield-from",
    "busy-wait-loop",
    "vulnerable-wait",
    "nonatomic-shared-rmw",
)


def _lint_fixture(name):
    path = FIXTURES / f"{name}.py"
    active, suppressed = lint_source(path.read_text(), str(path))
    return active, suppressed


# -- registry sanity ---------------------------------------------------------

def test_registry_contains_exactly_the_documented_rules():
    assert sorted(RULES) == sorted(ALL_RULES)


def test_every_rule_is_fully_described():
    for rule in RULES.values():
        assert rule.severity in SEVERITIES
        assert rule.summary
        assert rule.hint
        assert rule.paper_ref


# -- per-rule positive + negative fixtures -----------------------------------

@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_rule_fires_on_positive_fixture(rule_id):
    active, _ = _lint_fixture("pos_" + rule_id.replace("-", "_"))
    fired = [f for f in active if f.rule_id == rule_id]
    assert fired, f"{rule_id} silent on its positive fixture"
    for f in fired:
        assert f.severity == RULES[rule_id].severity
        assert f.line > 0 and f.col > 0
        assert f.hint
        assert f.function


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_negative_fixture_is_fully_clean(rule_id):
    # Not just silent for its own rule: the negatives are idiomatic
    # kernels, so NO rule may fire on them (false-positive guard).
    active, suppressed = _lint_fixture("neg_" + rule_id.replace("-", "_"))
    assert active == [], [f.render() for f in active]
    assert suppressed == []


def test_missing_yield_from_flags_both_call_forms():
    active, _ = _lint_fixture("pos_missing_yield_from")
    messages = [f.message for f in active if f.rule_id == "missing-yield-from"]
    assert any("ctx.atomic_add" in m for m in messages)
    assert any("acquire(ctx)" in m for m in messages)


def _dropped_ops(source):
    active, _ = lint_source(source, "kernel.py")
    return [(f.line, f.message) for f in active
            if f.rule_id == "missing-yield-from"]


def test_missing_yield_from_flags_dropped_op_mid_kernel():
    (finding,) = _dropped_ops(
        "def kernel(ctx):\n"
        "    addr = ctx.args['addr']\n"
        "    yield from ctx.compute(100)\n"
        "    ctx.store(addr, 1)\n"
        "    yield from ctx.compute(100)\n"
    )
    assert finding[0] == 4 and "ctx.store" in finding[1]


def test_missing_yield_from_flags_dropped_op_as_last_statement():
    (finding,) = _dropped_ops(
        "def kernel(ctx):\n"
        "    addr = ctx.args['addr']\n"
        "    yield from ctx.compute(100)\n"
        "    ctx.atomic_add(addr, 1)\n"
    )
    assert finding[0] == 4 and "ctx.atomic_add" in finding[1]


def test_missing_yield_from_allows_return_delegation():
    # a helper that returns the op's generator hands it to its caller,
    # which drives it with yield from: nothing is dropped
    assert _dropped_ops(
        "def read_it(ctx, addr):\n"
        "    return ctx.load(addr)\n"
        "\n"
        "def kernel(ctx):\n"
        "    value = yield from read_it(ctx, ctx.args['addr'])\n"
    ) == []


# -- suppression -------------------------------------------------------------

def _offending_source_and_line(rule_id):
    path = FIXTURES / f"pos_{rule_id.replace('-', '_')}.py"
    source = path.read_text()
    active, _ = lint_source(source, str(path))
    finding = next(f for f in active if f.rule_id == rule_id)
    return source, finding.line


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_noqa_with_rule_id_suppresses(rule_id):
    source, line = _offending_source_and_line(rule_id)
    lines = source.splitlines()
    lines[line - 1] += f"  # repro: noqa[{rule_id}]"
    active, suppressed = lint_source("\n".join(lines), "fixture.py")
    assert not any(f.rule_id == rule_id and f.line == line for f in active)
    assert any(f.rule_id == rule_id and f.line == line for f in suppressed)


def test_bare_noqa_suppresses_every_rule_on_the_line():
    source, line = _offending_source_and_line("busy-wait-loop")
    lines = source.splitlines()
    lines[line - 1] += "  # repro: noqa"
    active, suppressed = lint_source("\n".join(lines), "fixture.py")
    assert not any(f.line == line for f in active)
    assert any(f.line == line for f in suppressed)


def test_noqa_for_a_different_rule_does_not_suppress():
    source, line = _offending_source_and_line("busy-wait-loop")
    lines = source.splitlines()
    lines[line - 1] += "  # repro: noqa[missing-yield-from]"
    active, _ = lint_source("\n".join(lines), "fixture.py")
    assert any(f.rule_id == "busy-wait-loop" and f.line == line
               for f in active)


# -- syntax errors -----------------------------------------------------------

def test_unparsable_file_yields_syntax_error_finding():
    active, _ = lint_source("def kernel(ctx:\n    pass\n", "broken.py")
    assert len(active) == 1
    assert active[0].rule_id == "syntax-error"
    assert active[0].severity == "error"


# -- CLI ---------------------------------------------------------------------

def test_cli_lint_json_reports_findings(capsys):
    rc = main(["lint", "--json", str(FIXTURES / "pos_busy_wait_loop.py")])
    assert rc == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["files_scanned"] == 1
    assert {f["rule_id"] for f in data["findings"]} == {"busy-wait-loop"}
    assert sorted(data["rules"]) == sorted(ALL_RULES)


def test_cli_lint_clean_file_exits_zero(capsys):
    rc = main(["lint", "--json",
               str(FIXTURES / "neg_busy_wait_loop.py")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


# -- dogfood: the shipped tree must lint clean --------------------------------

def test_shipped_tree_lints_clean():
    paths = [str(REPO_ROOT / p) for p in DEFAULT_PATHS]
    report = lint_paths(paths)
    assert report.files_scanned >= 10
    assert report.findings == [], [f.render() for f in report.findings]


# -- docs meta-test ----------------------------------------------------------

@pytest.mark.parametrize("doc", ["README.md", "EXPERIMENTS.md"])
def test_every_rule_id_is_documented(doc):
    text = (REPO_ROOT / doc).read_text()
    for rule_id in RULES:
        assert rule_id in text, f"{rule_id} missing from {doc}"


# -- whole-kernel suppression via the def line --------------------------------

def _annotate_def_lines(source, comment):
    lines = source.splitlines()
    return "\n".join(
        line + comment if line.lstrip().startswith("def ") else line
        for line in lines)


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_noqa_on_the_def_line_suppresses_the_whole_kernel(rule_id):
    source, _ = _offending_source_and_line(rule_id)
    annotated = _annotate_def_lines(source, f"  # repro: noqa[{rule_id}]")
    active, suppressed = lint_source(annotated, "x.py")
    assert not [f for f in active if f.rule_id == rule_id], (
        f"{rule_id} not suppressed by a def-line noqa")
    assert any(f.rule_id == rule_id for f in suppressed)


def test_def_line_noqa_for_another_rule_does_not_suppress():
    source, _ = _offending_source_and_line("busy-wait-loop")
    annotated = _annotate_def_lines(
        source, "  # repro: noqa[missing-yield-from]")
    active, _ = lint_source(annotated, "x.py")
    assert any(f.rule_id == "busy-wait-loop" for f in active)


def test_findings_carry_their_def_line():
    source, line = _offending_source_and_line("busy-wait-loop")
    active, _ = lint_source(source, "x.py")
    finding = next(f for f in active if f.rule_id == "busy-wait-loop")
    assert 0 < finding.def_line <= line


# -- GitHub Actions annotation format -----------------------------------------

def test_render_github_error_and_warning():
    err = Finding(rule_id="busy-wait-loop", severity="error",
                  message="spin", path="a.py", line=3, col=5,
                  function="kernel", hint="h")
    warn = Finding(rule_id="vulnerable-wait", severity="warning",
                   message="racy", path="b.py", line=7, col=1,
                   function="kernel", hint="h")
    assert err.render_github() == (
        "::error file=a.py,line=3,col=5,title=busy-wait-loop::spin")
    assert warn.render_github().startswith("::warning file=b.py,line=7")


def test_cli_lint_github_format(capsys):
    rc = main(["lint", "--format", "github",
               str(FIXTURES / "pos_busy_wait_loop.py")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=busy-wait-loop" in out
    assert "file(s) scanned" in out


def test_cli_lint_github_format_clean(capsys):
    rc = main(["lint", "--format", "github",
               str(FIXTURES / "neg_busy_wait_loop.py")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "::error" not in out and "::warning" not in out
    assert "0 finding(s)" in out
