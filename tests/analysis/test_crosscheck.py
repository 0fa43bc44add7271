"""Cross-checker: static verdicts vs DESIGN.md vs dynamic runs.

The full 96-cell check against real runs is
``tests/integration/test_policy_differential.py``; these pin the
checker's rules on hand-made cells."""

from pathlib import Path

from repro.analysis.crosscheck import (
    canonical_policy_name,
    crosscheck,
    differential_scenario,
    parse_design_ifp_table,
)
from repro.analysis.specs import MAY_DEADLOCK, MUST_COMPLETE, UNKNOWN

REPO_ROOT = Path(__file__).resolve().parents[2]
DESIGN = str(REPO_ROOT / "DESIGN.md")


def test_canonical_policy_names():
    assert canonical_policy_name("Timeout-20k") == "Timeout"
    assert canonical_policy_name("Sleep-100") == "Sleep"
    assert canonical_policy_name("MonNR-One") == "MonNR-One"


def test_design_ifp_table_parses():
    table = parse_design_ifp_table(DESIGN)
    assert table["Baseline"] is False
    assert table["AWG"] is True
    assert table["Timeout"] is True
    assert len(table) >= 8


def test_unsound_must_complete_on_observed_deadlock():
    report = crosscheck(
        {("B", "P"): MUST_COMPLETE},
        observed={("B", "P"): {"ok": False, "deadlocked": True,
                               "reason": "deadlock"}},
    )
    assert not report.ok
    assert "UNSOUND" in report.render()


def test_sound_may_deadlock_on_observed_deadlock():
    report = crosscheck(
        {("B", "P"): MAY_DEADLOCK, ("B", "Q"): UNKNOWN},
        observed={
            ("B", "P"): {"ok": False, "deadlocked": True, "reason": "d"},
            ("B", "Q"): {"ok": False, "deadlocked": True, "reason": "d"},
        },
    )
    assert report.ok
    assert report.cells_checked == 2


def test_design_contradiction_is_a_violation():
    report = crosscheck(
        {("B", "Baseline"): MUST_COMPLETE},
        design_ifp={"Baseline": False},
    )
    assert not report.ok
    assert any("contradicts" in v for v in report.violations)


def test_pessimism_is_reported_but_not_fatal():
    report = crosscheck(
        {("B", "AWG"): MAY_DEADLOCK},
        observed={("B", "AWG"): {"ok": True, "deadlocked": False,
                                 "reason": ""}},
        design_ifp={"AWG": True},
    )
    assert report.ok
    assert report.pessimism


def test_unknown_verdict_vocabulary_is_rejected():
    report = crosscheck({("B", "P"): "MAYBE"})
    assert not report.ok


def test_differential_scenario_matches_the_suite_label():
    scenario = differential_scenario()
    assert scenario.label == "differential"
    assert scenario.total_wgs == 8
    assert scenario.max_wgs_per_cu == 1
