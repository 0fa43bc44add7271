"""Result tables: structured rows plus ASCII rendering."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's summary statistic)."""
    vals = [v for v in values if v is not None and v > 0]
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def fmt(value: Cell, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return f"{value:,}"
    if math.isnan(value):
        return "-"
    return f"{value:.{digits}f}"


@dataclass
class ExperimentResult:
    """A reproduced table/figure: column headers + rows + metadata.

    ``data[row_key][column]`` holds the raw values for programmatic
    assertions; ``render()`` produces the human-readable table."""

    title: str
    columns: List[str]
    data: Dict[str, Dict[str, Cell]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    row_label: str = "benchmark"

    def add_row(self, key: str, **values: Cell) -> None:
        self.data.setdefault(key, {}).update(values)

    def render(self, digits: int = 2) -> str:
        headers = [self.row_label] + self.columns
        body = [
            [row] + [fmt(self.data[row].get(col), digits) for col in self.columns]
            for row in self.data
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * w for w in widths))
        for r in body:
            lines.append(
                "  ".join(
                    r[i].ljust(widths[i]) if i == 0 else r[i].rjust(widths[i])
                    for i in range(len(r))
                )
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)
