"""Figure 2: a kernel rescheduled on fewer resources, then given them back.

The kernel-level scheduler takes a CU from a running kernel with
inter-WG synchronization and returns it later. Under AWG the evicted
WGs are restored and the kernel completes; a busy-waiting GPU cannot
restore a context-switched WG, so it ends at the deadlock watchdog,
returned CU or not. One ``PreemptionStorm`` takes the CU at 10 µs and
returns it 80 µs later, on the oversubscribed grid without its own loss
event. EXPERIMENTS.md states the rule that chose both times.
"""

from __future__ import annotations

from typing import List

from repro.core.policies import awg, baseline, monnr_one, timeout
from repro.experiments.matrix import MatrixResult, RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import OVERSUBSCRIBED, Scenario
from repro.faults.plan import FaultPlan, PreemptionStorm

BENCHMARKS = ("FAM_G", "TB_LG")
POLICIES = [baseline(), timeout(20_000), monnr_one(), awg()]

#: the committed scale: the oversubscribed grid, its CU taken at 10 µs
#: and returned at 90 µs by one storm instead of the scripted loss
FIG2_SCALE = OVERSUBSCRIBED.scaled(
    label="cu-lost-and-returned", resource_loss_at_us=None,
    fault_plan=FaultPlan(name="fig2", storm=PreemptionStorm(
        storms=1, first_at_us=10.0, severity=1, restore_after_us=80.0)),
)

VALID = "completed, valid"


def requests(scale: Scenario) -> List[RunRequest]:
    return [RunRequest(name, policy, scale)
            for name in BENCHMARKS for policy in POLICIES]


def table(matrix: MatrixResult) -> ExperimentResult:
    storm = matrix.cells[0].request.scenario.fault_plan.storm
    result = ExperimentResult(
        title=f"Figure 2: one CU taken at {storm.first_at_us} us and "
              f"returned {storm.restore_after_us} us later",
        columns=["cycles", "outcome", "CU losses", "CU restores",
                 "evicted WGs", "context switches"],
        row_label="cell",
    )
    for name in BENCHMARKS:
        for policy in POLICIES:
            res = matrix.get(name, policy.name)
            stats = res.stats
            result.add_row(
                f"{name} {policy.name}",
                **{
                    "cycles": res.cycles,
                    # a completed cell passed its final-memory validation,
                    # or the cell would have failed
                    "outcome": VALID if res.ok else f"DEADLOCK ({res.reason})",
                    "CU losses": int(stats.get("faults.storm.cu_losses", 0)),
                    "CU restores": int(stats.get("faults.storm.cu_restores",
                                                 0)),
                    "evicted WGs": int(stats.get("faults.storm.evictions", 0)),
                    "context switches": res.context_switches,
                },
            )
    return result


def check(result: ExperimentResult) -> None:
    """Assert Figure 2's hazard: every cell loses the CU; every IFP cell
    gets it back and completes with valid final memory; Baseline ends
    at the watchdog."""
    for cell, row in result.data.items():
        assert row["CU losses"] == 1, cell
        if cell.endswith(" Baseline"):
            assert row["outcome"] == "DEADLOCK (watchdog)", cell
        else:
            assert row["CU restores"] == 1, cell
            assert row["outcome"] == VALID, cell
