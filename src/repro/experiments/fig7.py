"""Figure 7: exponential backoff with ``s_sleep``, normalized runtime.

Sweeps the maximum backoff interval (Sleep-1k … Sleep-256k) over the
benchmarks the paper modified to use backoff. The paper's findings to
reproduce: backoff helps contended primitives (< 1.0), over-large
intervals become counterproductive, and no single interval is best for
every benchmark.
"""

from __future__ import annotations

from typing import List

from repro.core.policies import baseline, sleep
from repro.experiments.matrix import MatrixResult, RunRequest, run_matrix
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import Scenario
from repro.workloads.registry import BENCHMARKS

#: maximum backoff intervals, in cycles (the paper's Sleep-Xk labels)
INTERVALS = [1_000, 2_000, 4_000, 8_000, 16_000, 32_000,
             64_000, 128_000, 256_000]

#: the benchmarks the paper modified to use exponential backoff
SLEEP_BENCHMARKS = [n for n, s in BENCHMARKS.items() if s.supports_sleep]


def requests(scale: Scenario) -> List[RunRequest]:
    cells = []
    for name in SLEEP_BENCHMARKS:
        cells.append(RunRequest(name, baseline(), scale))
        for interval in INTERVALS:
            cells.append(RunRequest(name, sleep(backoff_max=interval), scale))
    return cells


def table(matrix: MatrixResult) -> ExperimentResult:
    labels = [f"Sleep-{i // 1000}k" for i in INTERVALS]
    result = ExperimentResult(
        title="Figure 7: Exponential backoff with s_sleep "
              "(runtime normalized to Baseline; < 1 is faster)",
        columns=["Baseline"] + labels,
    )
    for name in SLEEP_BENCHMARKS:
        base = matrix.get(name, "Baseline")
        result.add_row(name, Baseline=1.0)
        for interval, label in zip(INTERVALS, labels):
            res = matrix.get(name, sleep(backoff_max=interval).name)
            result.add_row(name, **{label: res.cycles / base.cycles})
    result.notes.append(
        "the paper's finding: no single static sleep configuration is "
        "best across primitives"
    )
    return result


def check(result: ExperimentResult) -> None:
    """Assert the paper's backoff findings at the committed scale."""
    # backoff helps the contended spin mutex...
    assert result.data["SPM_G"]["Sleep-16k"] < 1.0
    # ...but no single interval is best across primitives
    labels = [c for c in result.columns if c.startswith("Sleep")]
    best = {name: min(labels, key=lambda c: row[c])
            for name, row in result.data.items()}
    assert len(set(best.values())) > 1
    # over-sleeping eventually becomes counterproductive somewhere
    assert any(row["Sleep-256k"] > row["Sleep-1k"]
               for row in result.data.values())
