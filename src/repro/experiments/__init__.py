"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...)`` returning an
:class:`~repro.experiments.report.ExperimentResult` (structured rows +
an ASCII rendering). Called with no scenario, ``run()`` regenerates the
committed ``results/<name>.txt`` at its scale, and ``check(result)``
asserts the paper's qualitative shape at that scale (``python -m repro
all`` runs both for every artifact).

==========  ======================================================
module      paper artifact
==========  ======================================================
table1      Table 1 — baseline GPU model
table2      Table 2 — benchmark characterization (measured)
fig5        Figure 5 — WG context sizes
fig7        Figure 7 — exponential-backoff sleep sweep
fig8        Figure 8 — timeout-interval sweep
fig9        Figure 9 — wait efficiency (atomics vs MinResume)
fig11       Figure 11 — WG execution-time breakdown
fig13       Figure 13 — CP scheduling data-structure sizes
fig14       Figure 14 — non-oversubscribed speedup vs Baseline
fig15       Figure 15 — oversubscribed speedup vs Timeout
==========  ======================================================
"""

from repro.experiments.cache import ResultCache, default_cache
from repro.experiments.matrix import (
    CellError,
    MatrixResult,
    RunRequest,
    run_matrix,
)
from repro.experiments.report import ExperimentResult, geomean
from repro.experiments.runner import (
    OVERSUBSCRIBED,
    PAPER_SCALE,
    QUICK_OVERSUBSCRIBED,
    QUICK_SCALE,
    RunResult,
    Scenario,
    run_benchmark,
)

__all__ = [
    "CellError",
    "ExperimentResult",
    "MatrixResult",
    "OVERSUBSCRIBED",
    "PAPER_SCALE",
    "QUICK_OVERSUBSCRIBED",
    "QUICK_SCALE",
    "ResultCache",
    "RunRequest",
    "RunResult",
    "Scenario",
    "default_cache",
    "geomean",
    "run_benchmark",
    "run_matrix",
]
