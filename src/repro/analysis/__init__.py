"""Correctness tooling for the kernel DSL: static linter + sync sanitizer.

Two cooperating halves guard the growing workload registry against the
progress and synchronization bugs the paper is about:

- :mod:`repro.analysis.linter` — a stdlib-``ast`` linter over kernel
  bodies and sync primitives. Its rules (:mod:`repro.analysis.rules`)
  catch dropped device-op generators, raw busy-wait poll loops (the §IV
  IFP violation), check-then-wait patterns that re-open the §IV.C window
  of vulnerability, divergent ``__syncthreads``, and unprotected
  read-modify-writes on shared memory — before a simulation ever runs.
- :mod:`repro.analysis.analyzer` and friends — the static progress
  analyzer: a CFG builder (:mod:`repro.analysis.cfg`) and dataflow
  passes (:mod:`repro.analysis.dataflow`) over the same kernel ASTs,
  a progress-dependency pass (:mod:`repro.analysis.progress`) deriving
  role wait-for graphs per benchmark, and executable policy progress
  specs (:mod:`repro.analysis.specs`) that classify every
  (benchmark, policy) cell as MUST_COMPLETE / MAY_DEADLOCK / UNKNOWN —
  a static prediction of the paper's IFP deadlock table. Tier-1 holds
  it to the dynamic differential runs and to DESIGN.md's IFP column.
- :mod:`repro.analysis.sanitizer` — an opt-in
  (:attr:`~repro.gpu.config.GPUConfig.sanitize`) dynamic detector that
  maintains per-WG vector clocks and locksets over the memory hierarchy's
  plain loads/stores, deriving happens-before edges from the atomics
  performed at the L2, and reports unsynchronized conflicting accesses
  as ``sanitizer.*`` stats plus a machine-readable race report.

Surface: ``python -m repro lint [--json|--format=github] [paths]``,
``python -m repro analyze [BENCH...] [--json|--dot]`` and
``python -m repro run BENCH [POLICY] --sanitize``.
"""

from repro.analysis.analyzer import AnalysisReport, build_report
from repro.analysis.findings import Finding, SEVERITIES
from repro.analysis.linter import LintReport, lint_paths, lint_source
from repro.analysis.rules import RULES, Rule
from repro.analysis.sanitizer import SyncSanitizer
from repro.analysis.specs import (
    MAY_DEADLOCK,
    MUST_COMPLETE,
    UNKNOWN,
    table_policies,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "LintReport",
    "MAY_DEADLOCK",
    "MUST_COMPLETE",
    "RULES",
    "Rule",
    "SEVERITIES",
    "SyncSanitizer",
    "UNKNOWN",
    "build_report",
    "lint_paths",
    "lint_source",
    "table_policies",
]
