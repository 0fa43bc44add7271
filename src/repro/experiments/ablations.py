"""Ablation studies for AWG's design choices (DESIGN.md §5).

Four sweeps over the knobs the paper argues about:

- ``syncmon_capacity`` — shrink the condition cache until conditions
  spill to the Monitor Log: the virtualization interface must preserve
  correctness at any capacity, trading performance (§V.A).
- ``monitor_log_capacity`` — shrink the log until waiting atomics fail
  with Mesa busy-retries (§V.A's "log full" path).
- ``resume_prediction`` — AWG vs its fixed-resume ancestors on the two
  workloads that disagree (contended mutex vs centralized barrier): the
  predictor must match the better of MonNR-All / MonNR-One on both.
- ``stall_prediction`` — AWG with and without the predicted stall period
  in the oversubscribed scenario: stalling first avoids context-switch
  thrash on short waits, but can hurt latency-sensitive barriers (the
  paper's Figure 15 caveat).

Each sweep is a ``requests_*`` (its cells at a scale), a ``table_*``
(their results tabulated) and a ``check_*`` (its finding asserted at the
scale of its committed ``results/ablation_*`` table).
"""

from __future__ import annotations

from typing import List

from repro.core.policies import awg, monnr_all, monnr_one
from repro.experiments.matrix import MatrixResult, RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import PAPER_SCALE, Scenario

#: SyncMon condition-cache set counts swept, fully provisioned first
SYNCMON_SETS = [256, 16, 4, 1]

#: Monitor Log capacities swept, in entries, largest first
LOG_ENTRIES = [1024, 64, 8, 2]


def requests_syncmon_capacity(scale: Scenario) -> List[RunRequest]:
    """Condition-cache capacity sweep on FAM_G (4-way, so capacity = 4 x
    sets)."""
    return [RunRequest("FAM_G", awg(), scale,
                       config_overrides={"syncmon_sets": sets})
            for sets in SYNCMON_SETS]


def table_syncmon_capacity(matrix: MatrixResult) -> ExperimentResult:
    result = ExperimentResult(
        title="Ablation: SyncMon condition-cache capacity (FAM_G)",
        columns=["conditions", "cycles", "normalized", "spills",
                 "log peak", "cp resumes"],
        row_label="config",
    )
    base_cycles = None
    for sets, res in zip(SYNCMON_SETS, matrix):
        assert res.ok, f"virtualization must preserve progress (sets={sets})"
        if base_cycles is None:
            base_cycles = res.cycles
        result.add_row(
            f"{sets} sets",
            conditions=sets * 4,
            cycles=res.cycles,
            normalized=res.cycles / base_cycles,
            spills=int(res.stats["syncmon.spills"]),
            **{"log peak": int(res.stats["log.peak"]),
               "cp resumes": int(res.stats["cp.spilled_resumes"])},
        )
    return result


def check_syncmon_capacity(result: ExperimentResult) -> None:
    # shrinking the cache forces spills but never breaks progress, and
    # the fully-provisioned cache spills nothing
    rows = list(result.data.values())
    assert rows[0]["spills"] == 0
    assert rows[-1]["spills"] > 0
    assert rows[-1]["normalized"] >= 1.0


def requests_monitor_log_capacity(scale: Scenario) -> List[RunRequest]:
    """Monitor Log capacity sweep on SLM_G with a tiny SyncMon
    (everything spills)."""
    return [RunRequest("SLM_G", awg(), scale,
                       config_overrides={
                           "syncmon_sets": 1,
                           "monitor_log_entries": cap,
                           "cp_check_interval": 1_000,
                       })
            for cap in LOG_ENTRIES]


def table_monitor_log_capacity(matrix: MatrixResult) -> ExperimentResult:
    result = ExperimentResult(
        title="Ablation: Monitor Log capacity (SLM_G, 4-condition "
              "SyncMon so the log carries the load)",
        columns=["cycles", "normalized", "log-full retries"],
        row_label="entries",
    )
    base_cycles = None
    for cap, res in zip(LOG_ENTRIES, matrix):
        assert res.ok, f"Mesa busy-retry must preserve progress (cap={cap})"
        if base_cycles is None:
            base_cycles = res.cycles
        result.add_row(
            str(cap),
            cycles=res.cycles,
            normalized=res.cycles / base_cycles,
            **{"log-full retries": int(res.stats["syncmon.log_full"])},
        )
    return result


def check_monitor_log_capacity(result: ExperimentResult) -> None:
    # a starved log forces Mesa busy-retries; progress is still made
    rows = list(result.data.values())
    assert rows[-1]["log-full retries"] > 0


#: the resume-prediction ablation's two workloads, which disagree on
#: the better fixed resume count
RESUME_BENCHMARKS = ("SPM_G", "TB_LG")
RESUME_POLICIES = (monnr_all(), monnr_one(), awg())


def requests_resume_prediction(scale: Scenario) -> List[RunRequest]:
    """The predictor must match resume-One on mutexes and resume-All on
    barriers — the whole point of AWG over MonNR-* (§IV.E)."""
    return [RunRequest(b, p, scale)
            for b in RESUME_BENCHMARKS for p in RESUME_POLICIES]


def table_resume_prediction(matrix: MatrixResult) -> ExperimentResult:
    result = ExperimentResult(
        title="Ablation: resume-count prediction (cycles)",
        columns=["MonNR-All", "MonNR-One", "AWG", "AWG vs best fixed"],
    )
    for benchmark in RESUME_BENCHMARKS:
        cycles = {p.name: matrix.get(benchmark, p.name).cycles
                  for p in RESUME_POLICIES}
        best_fixed = min(cycles["MonNR-All"], cycles["MonNR-One"])
        result.add_row(
            benchmark,
            **{
                "MonNR-All": cycles["MonNR-All"],
                "MonNR-One": cycles["MonNR-One"],
                "AWG": cycles["AWG"],
                "AWG vs best fixed": cycles["AWG"] / best_fixed,
            },
        )
    return result


def check_resume_prediction(result: ExperimentResult) -> None:
    # the predictor tracks the better fixed policy on both extremes
    for row in result.data.values():
        assert row["AWG vs best fixed"] <= 1.15
    # and the fixed policies genuinely disagree across the two workloads
    assert result.data["SPM_G"]["MonNR-One"] < result.data["SPM_G"]["MonNR-All"]
    assert result.data["TB_LG"]["MonNR-All"] < result.data["TB_LG"]["MonNR-One"]


#: standing oversubscription: the grid is twice the machine's residency,
#: so every wait episode gets the switch-or-stall choice
STANDING_OVERSUB = PAPER_SCALE.scaled(
    total_wgs=64, wgs_per_group=8, max_wgs_per_cu=4, iterations=2,
    episodes=4, label="standing-oversubscription",
)

STALL_BENCHMARKS = ("SPM_G", "FAM_G", "TB_LG", "LFTB_LG")
STALL_POLICIES = (awg(), awg().with_overrides(name="AWG-NoStall",
                                              predict_stall=False))


def requests_stall_prediction(scale: Scenario) -> List[RunRequest]:
    """AWG with and without the predicted stall-before-switch.

    With a standing oversubscription (grid larger than residency),
    switching immediately on every failed wait thrashes the context-
    switch path; stalling for the predicted period first lets short
    waits resolve in place (§IV.B)."""
    return [RunRequest(b, p, scale)
            for b in STALL_BENCHMARKS for p in STALL_POLICIES]


def table_stall_prediction(matrix: MatrixResult) -> ExperimentResult:
    result = ExperimentResult(
        title="Ablation: predicted stall period before context switching "
              f"({matrix.cells[0].request.scenario.label})",
        columns=["AWG", "AWG-NoStall", "stall saves switches"],
    )
    for benchmark in STALL_BENCHMARKS:
        runs = {p.name: matrix.get(benchmark, p.name)
                for p in STALL_POLICIES}
        result.add_row(
            benchmark,
            **{
                "AWG": runs["AWG"].cycles,
                "AWG-NoStall": runs["AWG-NoStall"].cycles,
                "stall saves switches":
                    runs["AWG-NoStall"].context_switches
                    - runs["AWG"].context_switches,
            },
        )
    return result


def check_stall_prediction(result: ExperimentResult) -> None:
    # stalling before switching avoids context switches on every workload
    # under standing oversubscription, and never loses overall
    for name, row in result.data.items():
        assert row["stall saves switches"] > 0, name
        assert row["AWG"] <= row["AWG-NoStall"] * 1.05, name
