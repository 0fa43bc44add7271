"""The static progress table: benchmarks × policies, fully assembled.

Glue layer over the pipeline ``cfg -> dataflow -> progress -> specs``:
build one :class:`~repro.analysis.progress.ProtocolAnalysis` per
benchmark, judge every wait-site profile under every table policy, and
fold the results into an :class:`AnalysisReport` with renderers for the
CLI (ASCII table by default, ``--json``, ``--dot``). Tier-1 pins the
verdict table against ``tests/golden/analysis-table.json`` and asserts
it is sound against the differential runs and agrees with DESIGN.md's
IFP column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.progress import (
    ProtocolAnalysis,
    analyze_benchmark,
    render_dot,
)
from repro.analysis.specs import (
    CellVerdict,
    MAY_DEADLOCK,
    MUST_COMPLETE,
    UNKNOWN,
    cell_verdict,
    table_policies,
)

#: report schema version; bump on any structural change so a stale
#: committed golden fails loudly instead of diffing confusingly.
GOLDEN_VERSION = 1

#: short verdict labels for the ASCII table
_ABBREV = {MUST_COMPLETE: "must", MAY_DEADLOCK: "MAY-DL", UNKNOWN: "?"}


@dataclass
class AnalysisReport:
    """Everything ``repro analyze`` can print or diff."""

    benchmarks: List[str]
    policies: List[str]
    analyses: List[ProtocolAnalysis]
    cells: Dict[Tuple[str, str], CellVerdict] = field(default_factory=dict)

    @property
    def verdicts(self) -> Dict[Tuple[str, str], str]:
        return {key: cell.verdict for key, cell in self.cells.items()}

    @property
    def errors(self) -> List[str]:
        out: List[str] = []
        for pa in self.analyses:
            out.extend(pa.errors)
        return out

    def to_dict(self) -> Dict:
        return {
            "version": GOLDEN_VERSION,
            "benchmarks": list(self.benchmarks),
            "policies": list(self.policies),
            "table": {
                bench: {
                    policy: self.cells[(bench, policy)].verdict
                    for policy in self.policies
                }
                for bench in self.benchmarks
            },
            "cells": [self.cells[(b, p)].to_dict()
                      for b in self.benchmarks for p in self.policies],
            "graphs": [pa.to_dict() for pa in self.analyses],
        }

    def render_table(self) -> str:
        width = max(len(b) for b in self.benchmarks) if self.benchmarks else 8
        cols = [
            (p, max(len(p), max(len(_ABBREV[self.cells[(b, p)].verdict])
                                for b in self.benchmarks)))
            for p in self.policies
        ] if self.benchmarks else [(p, len(p)) for p in self.policies]
        lines = [" ".join([" " * width] +
                          [p.rjust(w) for p, w in cols])]
        for bench in self.benchmarks:
            row = [bench.ljust(width)]
            for policy, w in cols:
                row.append(_ABBREV[self.cells[(bench, policy)].verdict]
                           .rjust(w))
            lines.append(" ".join(row))
        counts = {v: 0 for v in (MUST_COMPLETE, MAY_DEADLOCK, UNKNOWN)}
        for cell in self.cells.values():
            counts[cell.verdict] += 1
        lines.append("")
        lines.append(
            f"{len(self.cells)} cell(s): "
            f"{counts[MUST_COMPLETE]} must-complete, "
            f"{counts[MAY_DEADLOCK]} may-deadlock, "
            f"{counts[UNKNOWN]} unknown")
        for err in self.errors:
            lines.append(f"  analysis-error: {err}")
        return "\n".join(lines)

    def render_dot(self) -> str:
        return render_dot(self.analyses)


def build_report(benches: Optional[Sequence[str]] = None) -> AnalysisReport:
    """Run the full static pipeline over the shipped benchmarks."""
    from repro.workloads.registry import benchmark_names

    names = list(benches) if benches else benchmark_names()
    policies = table_policies()
    analyses = [analyze_benchmark(bench) for bench in names]
    report = AnalysisReport(
        benchmarks=names,
        policies=[p.name for p in policies],
        analyses=analyses,
    )
    for pa in analyses:
        for policy in policies:
            report.cells[(pa.bench, policy.name)] = cell_verdict(
                pa.bench, policy, pa.profiles, pa.errors)
    return report
