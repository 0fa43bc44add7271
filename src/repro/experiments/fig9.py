"""Figure 9: wait efficiency.

Dynamic atomic-instruction counts, normalized to the MinResume oracle
(which never resumes a WG unnecessarily). The paper's shape: MonRS-All
(sporadic notifications) executes up to two orders of magnitude more
atomics on centralized primitives; MonR-All and MonNR-All are close to
the oracle; decentralized primitives are unaffected (≈ 1×) because every
condition has one waiter and one update.
"""

from __future__ import annotations

from typing import List

from repro.core.policies import minresume, monnr_all, monr_all, monrs_all
from repro.experiments.matrix import MatrixResult, RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import Scenario
from repro.workloads.registry import benchmark_names

CENTRALIZED = ["SPM_G", "FAM_G"]
DECENTRALIZED = ["SLM_G", "SLM_L", "LFTB_LG", "LFTBEX_LG"]

POLICIES = [minresume(), monrs_all(), monr_all(), monnr_all()]


def requests(scale: Scenario) -> List[RunRequest]:
    return [RunRequest(name, policy, scale)
            for name in benchmark_names() for policy in POLICIES]


def table(matrix: MatrixResult) -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 9: Wait efficiency — dynamic atomic instruction "
              "count normalized to MinResume (log-scale in the paper)",
        columns=[p.name for p in POLICIES],
    )
    for name in benchmark_names():
        counts = {
            policy.name: matrix.get(name, policy.name).atomics
            for policy in POLICIES
        }
        oracle = max(1, counts["MinResume"])
        result.add_row(
            name, **{p: c / oracle for p, c in counts.items()}
        )
    result.notes.append(
        "MonRS-All resumes waiters on every access without checking the "
        "condition, so centralized primitives retry massively"
    )
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

