"""Figure 15: speedup over Timeout in the oversubscribed scenario.

At 25 µs one CU is disabled and its WGs forcibly context-switched out
(the paper's §VI experiment, at 50 µs on their longer-running setup).
The shape to reproduce: Baseline and Sleep DEADLOCK wherever the evicted
WGs are required for progress (FIFO locks, barriers); every
monitor-based policy completes; AWG has the best or near-best geomean
(paper: 2.5× over Timeout), with the stall-time predictor costing it a
little on some latency-sensitive tree barriers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.policies import (
    PolicySpec, awg, baseline, monnr_all, monnr_one, sleep, timeout,
)
from repro.experiments.matrix import RunRequest, run_matrix
from repro.experiments.report import ExperimentResult, geomean
from repro.experiments.runner import OVERSUBSCRIBED, Scenario
from repro.workloads.registry import benchmark_names

GEOMEAN_ROW = "GeoMean"
DEADLOCK = "DEADLOCK"


def default_policies() -> List[PolicySpec]:
    return [baseline(), sleep(16_000), timeout(20_000),
            monnr_all(), monnr_one(), awg()]


def run(
    scenario: Scenario = OVERSUBSCRIBED,
    benchmarks: Optional[List[str]] = None,
    policies: Optional[List[PolicySpec]] = None,
    jobs: Optional[int] = None,
    cache="default",
) -> ExperimentResult:
    benchmarks = benchmarks or benchmark_names()
    policies = policies or default_policies()
    result = ExperimentResult(
        title="Figure 15: Speedup normalized to Timeout, oversubscribed "
              f"(resource loss at {scenario.resource_loss_at_us} us)",
        columns=[p.name for p in policies],
    )
    requests = [
        RunRequest(name, timeout(20_000), scenario) for name in benchmarks
    ]
    requests += [
        RunRequest(name, policy, scenario)
        for name in benchmarks
        for policy in policies
        if policy.name != "Timeout-20k"
    ]
    matrix = run_matrix(requests, jobs=jobs, cache=cache)
    speedups: Dict[str, List[float]] = {p.name: [] for p in policies}
    dropped = 0
    for name in benchmarks:
        # Degrade to partial output: a benchmark whose cells were lost
        # to a crash or timeout is reported as blank, not a sweep abort.
        norm = matrix.try_get(name, "Timeout-20k")
        for policy in policies:
            res = (None if norm is None
                   else matrix.try_get(name, policy.name))
            if res is None:
                result.add_row(name, **{policy.name: None})
                dropped += 1
                continue
            if not res.ok:
                result.add_row(name, **{policy.name: DEADLOCK})
                continue
            speedup = norm.cycles / res.cycles
            speedups[policy.name].append(speedup)
            result.add_row(name, **{policy.name: speedup})
    if dropped:
        result.notes.append(
            f"PARTIAL: {dropped} cell(s) missing or failed; see "
            f"MatrixResult.errors for the structured failure records"
        )
    result.add_row(
        GEOMEAN_ROW,
        **{
            p.name: (geomean(speedups[p.name]) if speedups[p.name] else None)
            for p in policies
        },
    )
    result.notes.append(
        "geomeans cover only the runs that completed; Baseline/Sleep "
        "deadlock everywhere — a baseline GPU cannot restore a context-"
        "switched WG"
    )
    result.notes.append("paper: AWG geomean = 2.5x over Timeout")
    result.notes.append(matrix.summary())
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
