"""The static progress table: benchmarks × policies, fully assembled.

Glue layer over the pipeline ``cfg -> dataflow -> progress -> specs``:
build one :class:`~repro.analysis.progress.ProtocolAnalysis` per
benchmark, judge every wait-site profile under every table policy, and
fold the results into an :class:`AnalysisReport` with renderers for the
CLI (ASCII table by default, ``--json``, ``--dot``), a committed-golden
diff for CI (``analysis-table.json``), and the dynamic/DESIGN
cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import crosscheck as xcheck
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

#: golden-file schema version; bump on any structural change so a stale
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

    def golden_dict(self) -> Dict:
        """The stable subset committed as ``analysis-table.json``.

        Verdicts only — no line numbers or reason strings, so routine
        refactors of the protocol sources do not churn the golden."""
        full = self.to_dict()
        return {
            "version": full["version"],
            "benchmarks": full["benchmarks"],
            "policies": full["policies"],
            "table": full["table"],
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


# -- golden-table comparison ---------------------------------------------------

def write_golden(report: AnalysisReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.golden_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def compare_golden(report: AnalysisReport, path: str) -> List[str]:
    """Diffs between the fresh table and the committed golden.

    Returns human-readable mismatch lines (empty = clean)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        return [f"golden file {path} not found — generate it with "
                f"`python -m repro analyze --write-golden {path}`"]
    except ValueError as exc:
        return [f"golden file {path} is not valid JSON: {exc}"]
    fresh = report.golden_dict()
    diffs: List[str] = []
    if golden.get("version") != fresh["version"]:
        diffs.append(
            f"schema version drift: golden={golden.get('version')} "
            f"fresh={fresh['version']} — re-baseline the golden")
        return diffs
    for key in ("benchmarks", "policies"):
        if golden.get(key) != fresh[key]:
            diffs.append(f"{key} changed: golden={golden.get(key)} "
                         f"fresh={fresh[key]}")
    gold_table = golden.get("table", {})
    for bench in fresh["benchmarks"]:
        for policy in fresh["policies"]:
            want = gold_table.get(bench, {}).get(policy)
            have = fresh["table"][bench][policy]
            if want != have:
                diffs.append(f"{bench}/{policy}: golden={want} fresh={have}")
    return diffs


# -- cross-check entry point ---------------------------------------------------

def run_crosscheck(report: AnalysisReport,
                   design_path: str = "DESIGN.md",
                   dynamic: bool = True) -> "xcheck.CrosscheckReport":
    """Cross-check the static table: DESIGN.md always, dynamic runs
    when ``dynamic`` (the expensive 96-cell differential replay)."""
    observed = xcheck.observed_outcomes(report.benchmarks) if dynamic \
        else None
    design = xcheck.parse_design_ifp_table(design_path)
    return xcheck.crosscheck(report.verdicts, observed, design)
