"""Experiment harness: one module per table/figure of the paper.

A module that simulates exposes its artifact as data and pure
functions: ``requests(scale)`` lists its :class:`RunRequest` cells,
``table(matrix)`` turns their :class:`MatrixResult` into an
:class:`~repro.experiments.report.ExperimentResult` (structured rows +
an ASCII rendering), and ``check(result)`` asserts the paper's shape at
the scale of the committed ``results/<name>.txt``. table1, fig5, fig6
and prior_work run no cell sweep; their ``table()`` takes no argument.
``repro.cli`` holds each artifact's committed and quick scales and runs
the cells in between (the ablations module's triples are ``requests_*``,
``table_*``, ``check_*``).

==========  ======================================================
module      paper artifact
==========  ======================================================
table1      Table 1 — baseline GPU model
table2      Table 2 — benchmark characterization (measured)
fig2        Figure 2 — a CU taken and given back mid-kernel
fig5        Figure 5 — WG context sizes
timeline    Figure 6 — policy wait signatures (``fig6``)
fig7        Figure 7 — exponential-backoff sleep sweep
fig8        Figure 8 — timeout-interval sweep
fig9        Figure 9 — wait efficiency (atomics vs MinResume)
fig11       Figure 11 — WG execution-time breakdown
fig13       Figure 13 — CP scheduling data-structure sizes
fig14       Figure 14 — non-oversubscribed speedup vs Baseline
fig15       Figure 15 — oversubscribed speedup vs Timeout
prior_work  §I, §II.D — cooperative groups, occupancy discovery
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
