"""Figure 8: the Timeout architecture's interval sweep.

Runtime of Timeout-10k/20k/50k/100k normalized to the busy-waiting
Baseline (non-oversubscribed). The paper's findings: different
synchronization primitives prefer different intervals, and some
intervals are substantially *worse* than busy-waiting — motivating
hardware monitoring.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies import baseline, timeout
from repro.experiments.matrix import RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import SWEEP_SCALE, Scenario
from repro.workloads.registry import benchmark_names

#: timeout intervals, in cycles (the paper's Timeout-Xk labels)
INTERVALS = [10_000, 20_000, 50_000, 100_000]


def run(
    scenario: Scenario = SWEEP_SCALE,
    jobs: Optional[int] = None,
    cache="default",
) -> ExperimentResult:
    benchmarks = benchmark_names()
    labels = [f"Timeout-{i // 1000}k" for i in INTERVALS]
    result = ExperimentResult(
        title="Figure 8: Timeout interval runtime, normalized to Baseline",
        columns=["Baseline"] + labels,
    )
    requests = []
    for name in benchmarks:
        requests.append(RunRequest(name, baseline(), scenario))
        for interval in INTERVALS:
            requests.append(RunRequest(name, timeout(interval), scenario))
    matrix = run_matrix(requests, jobs=jobs, cache=cache)
    for name in benchmarks:
        base = matrix.get(name, "Baseline")
        result.add_row(name, Baseline=1.0)
        for interval, label in zip(INTERVALS, labels):
            res = matrix.get(name, timeout(interval).name)
            result.add_row(name, **{label: res.cycles / base.cycles})
    result.notes.append(
        "values > 1 mean Timeout is slower than busy-waiting — the "
        "paper's motivation for monitor-based hardware support"
    )
    result.notes.append(matrix.summary())
    return result


def check(result: ExperimentResult) -> None:
    """Assert the paper's timeout findings at the committed scale."""
    labels = [c for c in result.columns if c.startswith("Timeout")]
    # some timeout configurations are worse than busy-waiting (the
    # paper's motivation for monitoring hardware)
    worst = max(row[c] for row in result.data.values() for c in labels)
    assert worst > 1.0
    # and no interval suits every primitive: the same interval is a big
    # win on one benchmark and a big loss on another
    t10k = [row["Timeout-10k"] for row in result.data.values()]
    assert min(t10k) < 1.0 < max(t10k)
    assert max(t10k) / min(t10k) > 5.0
