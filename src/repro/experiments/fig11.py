"""Figure 11: WG execution-time break-down (running vs waiting).

For Timeout, MonNR-All and MonNR-One, the total per-WG cycles spent
running vs waiting on synchronization, normalized to Timeout's total.
The paper's shape: MonNR-One wins on contended mutexes (spin mutexes),
MonNR-All on barriers, and both beat Timeout by shrinking the waiting
component.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies import monnr_all, monnr_one, timeout
from repro.experiments.matrix import RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import SWEEP_SCALE, Scenario
from repro.workloads.registry import benchmark_names

#: the paper's Figure 11 covers the 10 Table 2 benchmarks (no SPMBO)
BENCHMARKS = [n for n in benchmark_names() if not n.startswith("SPMBO")]


def run(
    scenario: Scenario = SWEEP_SCALE,
    jobs: Optional[int] = None,
    cache="default",
) -> ExperimentResult:
    policies = [timeout(20_000), monnr_all(), monnr_one()]
    cols = []
    for p in policies:
        cols += [f"{p.name} running", f"{p.name} waiting"]
    result = ExperimentResult(
        title="Figure 11: WG execution break-down, normalized to Timeout "
              "(running + waiting cycles summed over WGs)",
        columns=cols,
    )
    requests = [
        RunRequest(name, policy, scenario)
        for name in BENCHMARKS for policy in policies
    ]
    matrix = run_matrix(requests, jobs=jobs, cache=cache)
    for name in BENCHMARKS:
        runs = {p.name: matrix.get(name, p.name) for p in policies}
        denom = max(
            1, runs["Timeout-20k"].wg_running_cycles
            + runs["Timeout-20k"].wg_waiting_cycles
        )
        values = {}
        for p in policies:
            values[f"{p.name} running"] = runs[p.name].wg_running_cycles / denom
            values[f"{p.name} waiting"] = runs[p.name].wg_waiting_cycles / denom
        result.add_row(name, **values)
    result.notes.append(matrix.summary())
    return result


def _total(row, policy):
    return row[f"{policy} running"] + row[f"{policy} waiting"]


def check(result: ExperimentResult) -> None:
    """Assert the paper's break-down shape at the committed scale."""
    # MonNR-One handles contended spin mutexes well...
    assert _total(result.data["SPM_G"], "MonNR-One") < \
        _total(result.data["SPM_G"], "MonNR-All")
    # ...but is poor on centralized barriers, where MonNR-All shines
    assert _total(result.data["TB_LG"], "MonNR-All") < \
        _total(result.data["TB_LG"], "MonNR-One")
    # both monitor policies beat Timeout on the decentralized mutexes
    assert _total(result.data["SLM_G"], "MonNR-All") < 1.0
