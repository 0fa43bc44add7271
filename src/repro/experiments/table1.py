"""Table 1: the baseline GPU model.

Rows the simulator models are read from :class:`GPUConfig`; the SIMD
width, wavefront slots and the instruction and scalar caches are not
modelled and are the paper's text."""

from __future__ import annotations

from repro.experiments.report import ExperimentResult
from repro.gpu.config import GPUConfig


def table() -> ExperimentResult:
    config = GPUConfig()
    rows = {
        "Compute Units": f"{config.num_cus}",
        "Clock": f"{config.clock_ghz} GHz",
        "SIMD units / CU": f"{config.simds_per_cu}",
        "SIMD width": "64",
        "Wavefronts per SIMD": "20",
        "Instruction Cache / 4 CUs": "32 KB, 8-way, 4 cycles",
        "Scalar Cache / 4 CUs": "16 KB, 8-way, 4 cycles",
        "L1 cache / CU": (
            f"{config.l1_size // 1024} KB, {config.l1_assoc}-way, "
            f"{config.l1_latency} cycles"
        ),
        "L2 cache shared": (
            f"{config.l2_size // 1024} KB, {config.l2_assoc}-way, "
            f"{config.l2_latency} cycles"
        ),
        "DRAM": f"DDR3, {config.dram_channels} Channels, 1 GHz",
        "Block size": f"{config.block_bytes} B",
    }
    result = ExperimentResult(
        title="Table 1: Baseline GPU model",
        columns=["value"],
        row_label="parameter",
    )
    for key, value in rows.items():
        result.add_row(key, value=value)
    return result


def check(result: ExperimentResult) -> None:
    """Assert the paper's Table 1 machine."""
    assert result.data["Compute Units"]["value"] == "8"
    assert "512 KB" in result.data["L2 cache shared"]["value"]
