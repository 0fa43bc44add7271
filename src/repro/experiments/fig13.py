"""Figure 13: size of the CP's WG-scheduling data structures.

Per benchmark, the peak bytes the Command Processor needs for waiting
conditions, monitored addresses, waiting WGs, and the monitor table,
measured under AWG in the oversubscribed scenario (which exercises the
context-switching and spill paths). The paper additionally reports
0.74-3.11 MB of CP memory for saved WG contexts; we report our model's
equivalent.
"""

from __future__ import annotations

from typing import List

from repro.core.policies import awg
from repro.experiments.fig15 import eviction_note
from repro.experiments.matrix import MatrixResult, RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import OVERSUBSCRIBED, Scenario
from repro.workloads.registry import benchmark_names

#: the committed table's scale: the oversubscribed grid, shorter runs,
#: resource loss at 10 µs
FIG13_SCALE = OVERSUBSCRIBED.scaled(iterations=3, episodes=8,
                                    resource_loss_at_us=10.0)


def requests(scale: Scenario) -> List[RunRequest]:
    return [RunRequest(name, awg(), scale) for name in benchmark_names()]


def table(matrix: MatrixResult) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 13: CP scheduling data-structure sizes (KB), "
              "measured peaks under AWG",
        columns=[
            "Waiting Conditions",
            "Monitored Addresses",
            "Waiting WGs",
            "Monitor Table",
            "Saved Contexts",
        ],
    )
    for name in benchmark_names():
        stats = matrix.get(name, "AWG").stats
        result.add_row(
            name,
            **{
                "Waiting Conditions": stats["cp.ds.waiting_conditions"] / 1024.0,
                "Monitored Addresses": stats["cp.ds.monitored_addresses"] / 1024.0,
                "Waiting WGs": stats["cp.ds.waiting_wgs"] / 1024.0,
                "Monitor Table": stats["cp.ds.monitor_table"] / 1024.0,
                "Saved Contexts": stats["cp.arena.peak_bytes"] / 1024.0,
            },
        )
    result.notes.append(eviction_note(matrix, ["AWG"]))
    return result


def check(result: ExperimentResult) -> None:
    """Assert the paper's structure-size shape at the committed scale."""
    for name, row in result.data.items():
        assert row["Waiting WGs"] > 0, name
        # all CP structures stay tiny (the paper's point: KBs, not MBs,
        # with contexts dominating)
        assert row["Waiting Conditions"] < 64
    switched = sum(1 for row in result.data.values()
                   if row["Saved Contexts"] > 0)
    assert switched >= len(result.data) // 2

