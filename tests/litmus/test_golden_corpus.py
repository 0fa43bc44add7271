"""Golden litmus corpus: the committed per-model verdict baseline.

One JSON file per corpus program under ``tests/golden/litmus/``,
holding its canonical spec and the (policy -> outcome/expected/verdict)
cells for the golden policy subset, taken from the seed-1 quick litmus
run (``quick_litmus_run``). Cycle counts are deliberately left out so
engine perf work does not churn the litmus goldens.

Re-baseline after an intentional behavior change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/litmus/test_golden_corpus.py -q
"""

from pathlib import Path

import pytest

from repro.litmus.corpus import litmus_corpus
from repro.litmus.oracle import REPORT_VERSION
from tests.conftest import UPDATE_GOLDENS, check_golden

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden" / "litmus"


def golden_entry(document, program):
    """The committed subset of one corpus program's report entry."""
    entry = next(p for p in document["programs"]
                 if p["name"] == program.name)
    return {
        "version": REPORT_VERSION,
        "alias": program.alias,
        "name": program.name,
        "program": entry["spec"],
        "policies": document["policies"],
        "cells": {
            policy: {key: cell[key]
                     for key in ("completed", "expected", "verdicts")}
            for policy, cell in entry["cells"].items()
        },
    }


@pytest.mark.parametrize(
    "program", litmus_corpus(), ids=lambda p: p.alias)
def test_golden_corpus_program(quick_litmus_run, program):
    _rc, document = quick_litmus_run
    check_golden(GOLDEN_DIR / f"{program.alias}.json",
                 golden_entry(document, program))


def test_no_stale_golden_files():
    if UPDATE_GOLDENS or not GOLDEN_DIR.is_dir():
        pytest.skip("regenerating or goldens absent")
    committed = {p.name for p in GOLDEN_DIR.glob("*.json")}
    expected = {f"{p.alias}.json" for p in litmus_corpus()}
    assert committed == expected, (
        f"stale golden files: {sorted(committed - expected)}; "
        f"missing: {sorted(expected - committed)}")


def test_golden_corpus_is_classified_correctly(quick_litmus_run):
    # The acceptance criterion in executable form: every program
    # classified against all three models without contract violations,
    # and the models observably distinguishable.
    rc, document = quick_litmus_run
    assert rc == 0, document["summary"]
    assert document["summary"]["contract_violations"] == []
    assert document["summary"]["models_distinguishable"] is True
    for program in document["programs"]:
        for cell in program["cells"].values():
            assert set(cell["verdicts"]) == {"OBE", "Linear", "IFP"}
            for verdict in cell["verdicts"].values():
                assert verdict in ("satisfied", "violated", "vacuous")
