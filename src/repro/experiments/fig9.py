"""Figure 9: wait efficiency.

Dynamic atomic-instruction counts, normalized to the MinResume oracle
(which never resumes a WG unnecessarily). The paper's shape: MonRS-All
(sporadic notifications) executes up to two orders of magnitude more
atomics on centralized primitives; MonR-All and MonNR-All are close to
the oracle; decentralized primitives are unaffected (≈ 1×) because every
condition has one waiter and one update.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies import minresume, monnr_all, monr_all, monrs_all
from repro.experiments.matrix import RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import SWEEP_SCALE, Scenario
from repro.workloads.registry import benchmark_names

CENTRALIZED = ["SPM_G", "FAM_G"]
DECENTRALIZED = ["SLM_G", "SLM_L", "LFTB_LG", "LFTBEX_LG"]


def run(
    scenario: Scenario = SWEEP_SCALE,
    jobs: Optional[int] = None,
    cache="default",
) -> ExperimentResult:
    benchmarks = benchmark_names()
    policies = [minresume(), monrs_all(), monr_all(), monnr_all()]
    result = ExperimentResult(
        title="Figure 9: Wait efficiency — dynamic atomic instruction "
              "count normalized to MinResume (log-scale in the paper)",
        columns=[p.name for p in policies],
    )
    requests = [
        RunRequest(name, policy, scenario)
        for name in benchmarks for policy in policies
    ]
    matrix = run_matrix(requests, jobs=jobs, cache=cache)
    for name in benchmarks:
        counts = {
            policy.name: matrix.get(name, policy.name).atomics
            for policy in policies
        }
        oracle = max(1, counts["MinResume"])
        result.add_row(
            name, **{p: c / oracle for p, c in counts.items()}
        )
    result.notes.append(
        "MonRS-All resumes waiters on every access without checking the "
        "condition, so centralized primitives retry massively"
    )
    result.notes.append(matrix.summary())
    return result


def check(result: ExperimentResult) -> None:
    """Assert the paper's wait-efficiency shape at the committed scale."""
    # sporadic notification is dramatically inefficient on centralized
    # primitives (paper: up to two orders of magnitude)
    for name in CENTRALIZED:
        assert result.data[name]["MonRS-All"] > 3.0, name
        assert result.data[name]["MonRS-All"] >= \
            result.data[name]["MonNR-All"] * 0.9, name
    # decentralized primitives are unaffected (~1x)
    for name in DECENTRALIZED:
        for policy in ("MonRS-All", "MonR-All", "MonNR-All"):
            assert result.data[name][policy] < 2.5, (name, policy)

