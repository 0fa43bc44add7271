"""Figure 15: speedup over Timeout in the oversubscribed scenario.

At 25 µs one CU is disabled and its WGs forcibly context-switched out
(the paper's §VI experiment, at 50 µs on their longer-running setup).
14 of the 72 cells finish before 25 µs and so never lose the CU (six of
them in the AWG column); the table's last note names them.
The shape to reproduce: Baseline and Sleep DEADLOCK wherever the evicted
WGs are required for progress (FIFO locks, barriers); every
monitor-based policy completes; AWG has the best or near-best geomean
(paper: 2.5× over Timeout), with the stall-time predictor costing it a
little where it holds a slot that a switch would free (FAM_G and
LFTBEX_LG here).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.policies import (
    awg, baseline, monnr_all, monnr_one, sleep, timeout,
)
from repro.experiments.matrix import MatrixResult, RunRequest, run_matrix
from repro.experiments.report import ExperimentResult, geomean
from repro.experiments.runner import Scenario
from repro.workloads.registry import benchmark_names

GEOMEAN_ROW = "GeoMean"
DEADLOCK = "DEADLOCK"


POLICIES = [baseline(), sleep(16_000), timeout(20_000),
            monnr_all(), monnr_one(), awg()]


def requests(scale: Scenario) -> List[RunRequest]:
    benchmarks = benchmark_names()
    cells = [RunRequest(name, timeout(20_000), scale) for name in benchmarks]
    cells += [
        RunRequest(name, policy, scale)
        for name in benchmarks
        for policy in POLICIES
        if policy.name != "Timeout-20k"
    ]
    return cells


def eviction_note(matrix: MatrixResult, policies: Sequence[str]) -> str:
    """Name the cells whose CU loss evicted no WG (``preemption.evictions``
    is 0): a run that ends before the loss never loses the CU."""
    missed: Dict[str, List[str]] = {}
    for name in benchmark_names():
        for policy in policies:
            if not matrix.get(name, policy).stats.get(
                    "preemption.evictions", 0):
                missed.setdefault(name, []).append(policy)
    count = sum(len(cells) for cells in missed.values())
    note = (f"the CU loss evicted no WG in {count} of "
            f"{len(benchmark_names()) * len(policies)} cells")
    if missed:
        note += ": " + "; ".join(f"{name} ({', '.join(cells)})"
                                 for name, cells in missed.items())
    return note


def table(matrix: MatrixResult) -> ExperimentResult:
    scale = matrix.cells[0].request.scenario
    result = ExperimentResult(
        title="Figure 15: Speedup normalized to Timeout, oversubscribed "
              f"(resource loss at {scale.resource_loss_at_us} us)",
        columns=[p.name for p in POLICIES],
    )
    speedups: Dict[str, List[float]] = {p.name: [] for p in POLICIES}
    for name in benchmark_names():
        norm = matrix.get(name, "Timeout-20k")
        for policy in POLICIES:
            res = matrix.get(name, policy.name)
            if not res.ok:
                result.add_row(name, **{policy.name: DEADLOCK})
                continue
            speedup = norm.cycles / res.cycles
            speedups[policy.name].append(speedup)
            result.add_row(name, **{policy.name: speedup})
    result.add_row(
        GEOMEAN_ROW,
        **{
            p.name: (geomean(speedups[p.name]) if speedups[p.name] else None)
            for p in POLICIES
        },
    )
    result.notes.append(
        "geomeans cover only the runs that completed; Baseline/Sleep "
        "deadlock everywhere — a baseline GPU cannot restore a context-"
        "switched WG"
    )
    result.notes.append("paper: AWG geomean = 2.5x over Timeout")
    result.notes.append(eviction_note(matrix, [p.name for p in POLICIES]))
    return result


def check(result: ExperimentResult) -> None:
    """Assert the oversubscribed shape at paper scale. Paper: Baseline
    deadlocks everywhere; AWG 2.5x geomean over Timeout."""
    rows = [n for n in result.data if n != GEOMEAN_ROW]
    # Baseline cannot survive losing resources mid-kernel: every run
    # deadlocks (current GPUs cannot restore context-switched WGs)
    assert all(result.data[n]["Baseline"] == DEADLOCK for n in rows)
    # every monitor-based policy and Timeout complete everywhere
    for n in rows:
        for policy in ("Timeout-20k", "MonNR-All", "MonNR-One", "AWG"):
            assert result.data[n][policy] != DEADLOCK, (n, policy)
    # AWG clearly beats the fixed-interval Timeout (paper: 2.5x geomean)
    assert result.data[GEOMEAN_ROW]["AWG"] > 2.0
