"""The assembled static table, its golden file, and the analyze CLI."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.analyzer import build_report
from repro.analysis.specs import MAY_DEADLOCK, MUST_COMPLETE
from repro.cli import main
from repro.workloads.registry import benchmark_names
from tests.conftest import check_golden

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = REPO_ROOT / "tests" / "golden" / "analysis-table.json"


@pytest.fixture(scope="module")
def report():
    return build_report()


def golden_table(report):
    """The committed subset: verdicts only, no line numbers or reason
    strings, so refactors of the protocol sources leave it alone."""
    doc = report.to_dict()
    return {key: doc[key]
            for key in ("version", "benchmarks", "policies", "table")}


def test_full_table_covers_every_cell(report):
    assert report.benchmarks == benchmark_names()
    assert len(report.benchmarks) == 12
    assert len(report.policies) == 8
    assert len(report.cells) == 96
    assert report.errors == []


def test_static_table_reproduces_the_ifp_deadlock_table(report):
    """The paper's claim, statically derived: the non-IFP baseline may
    deadlock everywhere, every IFP policy must complete everywhere."""
    for bench in report.benchmarks:
        assert report.cells[(bench, "Baseline")].verdict == MAY_DEADLOCK
        for policy in report.policies:
            if policy != "Baseline":
                cell = report.cells[(bench, policy)]
                assert cell.verdict == MUST_COMPLETE, (
                    bench, policy, cell.reasons)


def test_every_cell_explains_itself(report):
    for cell in report.cells.values():
        assert cell.sites, (cell.bench, cell.policy)
        assert cell.reasons, (cell.bench, cell.policy)


def test_committed_golden_matches_fresh_analysis(report):
    check_golden(GOLDEN, golden_table(report))


def test_golden_roundtrip_and_drift_detection(report, tmp_path,
                                              monkeypatch):
    path = tmp_path / "golden.json"
    monkeypatch.setattr("tests.conftest.UPDATE_GOLDENS", True)
    check_golden(path, golden_table(report))
    monkeypatch.setattr("tests.conftest.UPDATE_GOLDENS", False)
    check_golden(path, golden_table(report))
    doc = json.loads(path.read_text())
    doc["table"]["SPM_G"]["AWG"] = MAY_DEADLOCK
    path.write_text(json.dumps(doc))
    with pytest.raises(AssertionError) as exc:
        check_golden(path, golden_table(report))
    assert "1 value(s)" in str(exc.value)
    assert "table.SPM_G.AWG" in str(exc.value)


def test_missing_golden_says_how_to_create_it(report, tmp_path,
                                              monkeypatch):
    monkeypatch.setattr("tests.conftest.UPDATE_GOLDENS", False)
    with pytest.raises(AssertionError, match="REPRO_UPDATE_GOLDENS=1"):
        check_golden(tmp_path / "nope.json", golden_table(report))


def parse_design_ifp_table(path=REPO_ROOT / "DESIGN.md"):
    """DESIGN.md's hand-written policy table, ``IFP?`` column: policy
    name -> provides IFP (``yes``/``yes*`` -> True, ``no`` -> False)."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.strip().startswith("|") or len(cells) < 5:
            continue
        name, ifp = cells[0].strip("* "), cells[-1].lower()
        if ifp.startswith("yes"):
            out[name] = True
        elif ifp.startswith("no"):
            out[name] = False
    assert out, f"no IFP table found in {path}"
    return out


def test_design_ifp_table_parses():
    table = parse_design_ifp_table()
    assert table["Baseline"] is False
    assert table["AWG"] is True
    assert table["Timeout"] is True
    assert len(table) >= 8


def test_static_table_agrees_with_design_ifp_column(report):
    """No policy DESIGN.md marks ``no`` owns a MUST_COMPLETE cell: the
    static table may not contradict the paper's IFP column."""
    design = parse_design_ifp_table()
    for (bench, policy), verdict in report.verdicts.items():
        # parameterized names resolve to their row: Timeout-20k -> Timeout
        row = re.sub(r"^(Timeout|Sleep)-.*", r"\1", policy)
        assert row in design, (bench, policy)
        assert design[row] or verdict != MUST_COMPLETE, (
            f"{bench}/{policy}: static MUST_COMPLETE contradicts the "
            "DESIGN.md IFP table entry 'no'")


def test_report_json_schema(report):
    doc = report.to_dict()
    assert doc["version"] == 1
    assert set(doc) == {"version", "benchmarks", "policies", "table",
                        "cells", "graphs"}
    assert len(doc["cells"]) == 96
    for cell in doc["cells"]:
        assert set(cell) == {"bench", "policy", "verdict", "sites"}
    assert len(doc["graphs"]) == 12


# -- CLI ----------------------------------------------------------------------

def test_cli_analyze_table(capsys):
    assert main(["analyze", "SPM_G"]) == 0
    out = capsys.readouterr().out
    assert "SPM_G" in out and "MAY-DL" in out and "must" in out


def test_cli_analyze_json(capsys):
    assert main(["analyze", "SLM_G", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["benchmarks"] == ["SLM_G"]
    assert doc["table"]["SLM_G"]["Baseline"] == MAY_DEADLOCK


def test_cli_analyze_dot(capsys):
    assert main(["analyze", "TB_LG", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
