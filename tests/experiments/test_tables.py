"""Artifacts as data: each sweeping artifact's cells are pinned, and its
table is a pure function of their results, tested here on fabricated
cells with nothing simulated."""

import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro.cli import ARTIFACTS
from repro.experiments import (
    QUICK_OVERSUBSCRIBED, QUICK_SCALE, CellError, MatrixResult, RunResult,
    fig13, fig14, fig15, geomean,
)
from repro.experiments.matrix import Cell
from repro.workloads.registry import BENCHMARKS
from tests.conftest import check_golden

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "requests.json"

SWEEPING = sorted(name for name, artifact in ARTIFACTS.items()
                  if artifact.requests is not None)


def test_every_artifacts_cells_are_pinned():
    # the ordered cells of every sweeping artifact at its committed and
    # its quick scale: a dropped, added or reordered cell drifts here
    fresh = {}
    for name in SWEEPING:
        artifact = ARTIFACTS[name]
        scales = {"committed": artifact.scale, "quick": artifact.quick}
        fresh[name] = {label: [r.spec() for r in artifact.requests(scale)]
                       for label, scale in scales.items()
                       if scale is not None}
    check_golden(GOLDEN, fresh)


def _result(request, cycles=1000, ok=True) -> RunResult:
    return RunResult(
        benchmark=request.benchmark, policy=request.policy.name,
        cycles=cycles, completed=ok, deadlocked=not ok,
        reason="" if ok else "no progress", context_switches=0,
        wg_running_cycles=cycles, wg_waiting_cycles=0,
        scenario=request.scenario.label,
        stats=defaultdict(lambda: 1.0),
    )


def _matrix(requests, outcome) -> MatrixResult:
    """A matrix over ``requests`` whose cell holds ``outcome(request)``:
    a RunResult, or a failure record for a cell whose simulation
    raised."""
    cells = []
    for request in requests:
        made = outcome(request)
        if isinstance(made, RunResult):
            cells.append(Cell(request, result=made))
        else:
            cells.append(Cell(request, failure=made))
    return MatrixResult(cells, jobs=1, cache_hits=0, cache_misses=0,
                        deduped=0)


def test_fig14_renders_no_sleep_where_a_benchmark_has_no_backoff():
    def outcome(request):
        baseline = request.policy.name == "Baseline"
        return _result(request, cycles=1000 if baseline else 500)

    table = fig14.table(_matrix(fig14.requests(QUICK_SCALE), outcome))
    for name, spec in BENCHMARKS.items():
        expected = 2.0 if spec.supports_sleep else None
        assert table.data[name]["Sleep-16k"] == expected, name
    assert table.data["SLM_G"]["AWG"] == 2.0
    assert table.data[fig14.GEOMEAN_ROW]["Sleep-16k"] == pytest.approx(2.0)
    row = next(line for line in table.render().splitlines()
               if line.startswith("SLM_G "))
    assert row.split()[2] == "-"  # the Sleep-16k column


def test_fig15_renders_deadlock_and_geomeans_only_completed_runs():
    awg_cycles = {"SPM_G": 250, "FAM_G": 1000}

    def outcome(request):
        policy = request.policy.name
        if policy == "Baseline":
            return _result(request, ok=False)
        if policy == "AWG":
            cycles = awg_cycles.get(request.benchmark)
            return _result(request, cycles or 1000, ok=cycles is not None)
        return _result(request)

    table = fig15.table(_matrix(fig15.requests(QUICK_OVERSUBSCRIBED),
                                outcome))
    assert "(resource loss at 10.0 us)" in table.title
    assert table.data["SPM_G"]["AWG"] == 4.0
    assert table.data["FAM_G"]["AWG"] == 1.0
    assert table.data["TB_LG"]["AWG"] == fig15.DEADLOCK
    assert all(table.data[name]["Baseline"] == fig15.DEADLOCK
               for name in BENCHMARKS)
    gm = table.data[fig15.GEOMEAN_ROW]
    assert gm["AWG"] == pytest.approx(geomean([4.0, 1.0]))
    assert gm["Baseline"] is None
    assert gm["Timeout-20k"] == 1.0
    rendered = table.render()
    assert "DEADLOCK" in rendered.splitlines()[3]  # SPM_G's row


def test_fig13_and_fig15_name_the_cells_the_cu_loss_missed():
    missed = {("FAM_L", "MonNR-All"), ("TB_LG", "AWG")}

    def outcome(request):
        result = _result(request)
        cell = (request.benchmark, request.policy.name)
        result.stats["preemption.evictions"] = 0 if cell in missed else 16
        return result

    def last_note(module):
        requests = module.requests(QUICK_OVERSUBSCRIBED)
        return module.table(_matrix(requests, outcome)).notes[-1]

    assert last_note(fig15) == ("the CU loss evicted no WG in 2 of 72 "
                                "cells: FAM_L (MonNR-All); TB_LG (AWG)")
    assert last_note(fig13) == ("the CU loss evicted no WG in 1 of 12 "
                                "cells: TB_LG (AWG)")
    missed.clear()
    assert last_note(fig15) == "the CU loss evicted no WG in 0 of 72 cells"


@pytest.mark.parametrize("name", SWEEPING)
def test_a_failed_cell_fails_the_table_naming_that_cell(name):
    artifact = ARTIFACTS[name]
    requests = artifact.requests(artifact.quick or artifact.scale)
    failing = requests[-1]
    failure = {"type": "RuntimeError", "message": "injected cell failure",
               "traceback": "RuntimeError: injected cell failure"}
    matrix = _matrix(requests, lambda request:
                     failure if request is failing else _result(request))
    expected = re.escape(f"cell ({failing.benchmark}, "
                         f"{failing.policy.name}, {failing.scenario.label})")
    with pytest.raises(CellError, match=expected) as exc:
        artifact.table(matrix)
    assert exc.value.failure == failure
