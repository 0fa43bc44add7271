"""Table 2: benchmark characterization.

Renders the paper's analytical row (in terms of G, L, n) alongside the
values *measured* by instrumented runs under MonNR-All (whose waiting
atomics register every waiter with the SyncMon, making the monitor's
counters a complete characterization of the synchronization behaviour).
"""

from __future__ import annotations

from typing import List

from repro.core.policies import monnr_all
from repro.experiments.matrix import MatrixResult, RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import PAPER_SCALE, Scenario
from repro.workloads.registry import BENCHMARKS

#: the committed table's scale: the paper's grid, shorter runs
TABLE2_SCALE = PAPER_SCALE.scaled(iterations=2, episodes=4)


def requests(scale: Scenario) -> List[RunRequest]:
    return [RunRequest(name, monnr_all(), scale) for name in BENCHMARKS]


def table(matrix: MatrixResult) -> ExperimentResult:
    scale = matrix.cells[0].request.scenario
    result = ExperimentResult(
        title="Table 2: Inter-WG synchronization benchmarks "
              f"[G={scale.total_wgs}, L={scale.wgs_per_group}]",
        columns=[
            "description",
            "# sync vars (paper)",
            "# sync vars (meas)",
            "conds/var (paper)",
            "conds/var (meas)",
            "waiters/cond (paper)",
            "waiters/cond (meas)",
            "updates until met (paper)",
            "updates until met (meas)",
        ],
    )
    for name, spec in BENCHMARKS.items():
        stats = matrix.get(name, "MonNR-All").stats
        result.add_row(
            name,
            **{
                "description": spec.description,
                "# sync vars (paper)": spec.table2.sync_vars,
                "# sync vars (meas)": stats["char.sync_vars"],
                "conds/var (paper)": spec.table2.conds_per_var,
                "conds/var (meas)": stats["char.conds_per_var"],
                "waiters/cond (paper)": spec.table2.waiters_per_cond,
                "waiters/cond (meas)": stats["char.waiters_per_cond"],
                "updates until met (paper)": spec.table2.updates_until_met,
                "updates until met (meas)": stats["char.updates_until_met"],
            },
        )
    result.notes.append(
        "paper columns are symbolic (G = total WGs, L = WGs per group, "
        "n = WIs per WG); measured columns are SyncMon counters."
    )
    return result


def check(result: ExperimentResult) -> None:
    """Assert the paper's characterization shape."""
    # centralized spin mutex: one variable, whole grid contends
    assert result.data["SPM_G"]["# sync vars (meas)"] == 1
    # decentralized primitives spread across many variables
    assert result.data["SLM_G"]["# sync vars (meas)"] > \
        result.data["SPM_G"]["# sync vars (meas)"]
    # centralized barrier conditions gather many waiters; decentralized one
    assert result.data["TB_LG"]["waiters/cond (meas)"] > \
        result.data["LFTB_LG"]["waiters/cond (meas)"]
