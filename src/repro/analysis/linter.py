"""Linter driver: file discovery, suppression, CLI rendering.

Suppression: append ``# repro: noqa`` to the finding's line to silence
every rule there, or ``# repro: noqa[rule-a,rule-b]`` for specific rules.
A noqa comment on the enclosing ``def`` line suppresses matching rules
for the whole kernel function. There is no baseline of known findings:
every unsuppressed finding fails the run.
"""

from __future__ import annotations

import ast
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.dsl import iter_kernel_functions
from repro.analysis.findings import Finding
from repro.analysis.rules import RULES, check_kernel

#: default lint targets, relative to the repository root
DEFAULT_PATHS = ("src/repro/workloads", "src/repro/sync", "examples")

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s\-]+)\])?")


@dataclass
class LintReport:
    """Everything one lint run produced, partitioned by disposition."""

    findings: List[Finding] = field(default_factory=list)  # actionable
    suppressed: List[Finding] = field(default_factory=list)  # noqa'd
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "rules": sorted(RULES),
        }

    def render(self) -> str:
        lines = [f.render() for f in sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule_id))]
        errors = sum(1 for f in self.findings if f.severity == "error")
        warnings = len(self.findings) - errors
        lines.append(
            f"{self.files_scanned} file(s) scanned: {errors} error(s), "
            f"{warnings} warning(s)"
            + (f", {len(self.suppressed)} suppressed" if self.suppressed else "")
        )
        return "\n".join(lines)


def _noqa_map(source: str) -> Dict[int, Optional[Set[str]]]:
    """line -> suppressed rule ids (None = all rules)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(line)
        if not m:
            continue
        if m.group(1) is None:
            out[i] = None
        else:
            out[i] = {r.strip() for r in m.group(1).split(",") if r.strip()}
    return out


def lint_source(source: str, path: str) -> Tuple[List[Finding], List[Finding]]:
    """Lint one file's source; returns ``(active, suppressed)`` findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            rule_id="syntax-error", severity="error", path=path,
            line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            message=f"file does not parse: {exc.msg}",
            hint="fix the syntax error before the kernel rules can run",
        )], []
    findings: List[Finding] = []
    for kfn in iter_kernel_functions(tree, path):
        findings.extend(check_kernel(kfn))
    noqa = _noqa_map(source)

    def line_suppresses(line: int, rule_id: str) -> bool:
        if line not in noqa:
            return False
        rules_here = noqa[line]
        return rules_here is None or rule_id in rules_here

    def is_suppressed(f: Finding) -> bool:
        if line_suppresses(f.line, f.rule_id):
            return True
        # A noqa on the enclosing `def` line silences the whole kernel.
        return f.def_line > 0 and f.def_line != f.line and \
            line_suppresses(f.def_line, f.rule_id)

    active = [f for f in findings if not is_suppressed(f)]
    suppressed = [f for f in findings if is_suppressed(f)]
    return active, suppressed


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in ("__pycache__", ".git", ".pytest_cache"))
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        elif path.endswith(".py"):
            yield path


def lint_paths(paths: Sequence[str]) -> LintReport:
    """Lint every ``.py`` file under ``paths`` and partition the results."""
    report = LintReport()
    for filename in iter_python_files(paths):
        report.files_scanned += 1
        try:
            with open(filename, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            report.findings.append(Finding(
                rule_id="io-error", severity="error", path=filename,
                line=1, col=1, message=f"cannot read file: {exc}", hint=""))
            continue
        active, suppressed = lint_source(source, filename)
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
    return report


def run_lint(paths: Sequence[str], fmt: str = "text", stream=None) -> int:
    """CLI entry point for ``python -m repro lint``; returns exit status.

    ``fmt`` selects the rendering: ``"text"``, ``"json"``, or
    ``"github"`` (GitHub Actions ``::error``/``::warning`` workflow
    commands, one per finding, then a one-line count).
    """
    stream = stream if stream is not None else sys.stdout
    targets = list(paths) if paths else [
        p for p in DEFAULT_PATHS if os.path.exists(p)]
    if not targets:
        print("lint: no paths given and no default paths found", file=stream)
        return 2
    report = lint_paths(targets)
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2), file=stream)
    elif fmt == "github":
        for f in sorted(report.findings,
                        key=lambda f: (f.path, f.line, f.rule_id)):
            print(f.render_github(), file=stream)
        print(f"{report.files_scanned} file(s) scanned: "
              f"{len(report.findings)} finding(s)", file=stream)
    else:
        print(report.render(), file=stream)
    return 0 if report.ok else 1
