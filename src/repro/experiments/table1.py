"""Table 1: the baseline GPU model."""

from __future__ import annotations

from typing import Optional

from repro.experiments.report import ExperimentResult
from repro.gpu.config import GPUConfig


def run(config: Optional[GPUConfig] = None) -> ExperimentResult:
    config = config or GPUConfig()
    result = ExperimentResult(
        title="Table 1: Baseline GPU model",
        columns=["value"],
        row_label="parameter",
    )
    for key, value in config.describe().items():
        result.add_row(key, value=value)
    return result


def check(result: ExperimentResult) -> None:
    """Assert the paper's Table 1 machine."""
    assert result.data["Compute Units"]["value"] == "8"
    assert "512 KB" in result.data["L2 cache shared"]["value"]
