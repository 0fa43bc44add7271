"""Figure 5: work-group context size (KB) per benchmark.

The paper reports 2-10 KB across the HeteroSync benchmarks; the size
drives the cost of every context switch (vector registers for every WI,
scalar registers for every wavefront, plus the WG's LDS allocation).
It depends on a benchmark's resources, not on the grid, so the kernels
are built at one scale and nothing is simulated.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.experiments.runner import PAPER_SCALE
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU
from repro.core.policies import awg
from repro.workloads.registry import BENCHMARKS, build_benchmark


def table() -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 5: Work-group context size",
        columns=["context KB", "VGPR bytes", "SGPR bytes", "LDS bytes"],
    )
    for name, spec in BENCHMARKS.items():
        gpu = GPU(GPUConfig(), awg())
        kernel = build_benchmark(name, gpu, params=PAPER_SCALE.params())
        res = spec.resources
        vgpr = res.vgprs_per_wi * 4 * kernel.wis_per_wg
        sgpr = res.sgprs_per_wavefront * 4 * kernel.wavefronts_per_wg
        result.add_row(
            name,
            **{
                "context KB": kernel.context_bytes() / 1024.0,
                "VGPR bytes": vgpr,
                "SGPR bytes": sgpr,
                "LDS bytes": res.lds_bytes,
            },
        )
    result.notes.append("paper range: 2-10 KB (their Figure 5)")
    return result


def check(result: ExperimentResult) -> None:
    """Assert every context size lies in the paper's band."""
    sizes = [row["context KB"] for row in result.data.values()]
    assert 1.5 <= min(sizes) and max(sizes) <= 10.5  # the paper's band
