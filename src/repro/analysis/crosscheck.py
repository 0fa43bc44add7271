"""Verdict cross-checking: static table vs. dynamic runs vs. DESIGN.md.

Soundness contract (the acceptance bar of the static analyzer):

* every dynamically observed deadlock must be statically
  ``MAY_DEADLOCK`` or ``UNKNOWN`` — a ``MUST_COMPLETE`` cell that
  deadlocks is an **unsound** prediction and fails the check;
* a policy the hand-written DESIGN.md IFP table marks ``no`` must not
  own any ``MUST_COMPLETE`` cell (the static table may not contradict
  the paper's table);
* the reverse direction — a ``MAY_DEADLOCK`` cell that completes — is
  *allowed* ("may" is not "must") but reported as pessimism when the
  DESIGN table says the policy provides IFP.

The dynamic side is the differential suite's own 96-cell matrix
(:data:`DIFFERENTIAL_SCALE` knobs on ``QUICK_SCALE``, every
:func:`~repro.analysis.specs.table_policies` policy): tier-1's
``tests/integration/test_policy_differential.py`` simulates it once and
feeds its outcomes to :func:`crosscheck`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.specs import MAY_DEADLOCK, MUST_COMPLETE, UNKNOWN

#: the differential suite's oversubscription-after-CU-loss scenario
#: (8 WGs, 1 slot per CU, one CU lost mid-run) as ``QUICK_SCALE.scaled``
#: keyword arguments — kept as data so importing this module stays
#: simulator-free.
DIFFERENTIAL_SCALE = dict(
    total_wgs=8,
    wgs_per_group=4,
    max_wgs_per_cu=1,
    iterations=1,
    episodes=4,
    resource_loss_at_us=0.5,
    deadlock_window=100_000,
    label="differential",
)


def differential_scenario():
    """The scenario object (imports the simulator on first use)."""
    from repro.experiments import QUICK_SCALE

    return QUICK_SCALE.scaled(**DIFFERENTIAL_SCALE)


def canonical_policy_name(name: str) -> str:
    """Strip parameter suffixes: ``Timeout-20k`` -> ``Timeout``."""
    m = re.match(r"(Timeout|Sleep)\b", name)
    return m.group(1) if m else name


# -- DESIGN.md IFP table ------------------------------------------------------

def parse_design_ifp_table(path: str = "DESIGN.md") -> Dict[str, bool]:
    """Parse the hand-written policy table's ``IFP?`` column.

    Returns canonical policy name -> provides IFP (``yes``/``yes*`` ->
    True, ``no`` -> False). Raises if the table cannot be found — the
    cross-check must never silently skip its reference."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    out: Dict[str, bool] = {}
    for line in text.splitlines():
        if not line.strip().startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 5:
            continue
        name = cells[0].strip("* ").strip()
        ifp = cells[-1].strip().lower()
        if name in ("Policy", "") or set(name) <= {"-"}:
            continue
        if ifp.startswith("yes"):
            out[name] = True
        elif ifp.startswith("no"):
            out[name] = False
    if not out:
        raise ValueError(f"no IFP table found in {path}")
    return out


# -- the check ----------------------------------------------------------------

@dataclass
class CrosscheckReport:
    """Outcome of one static-vs-dynamic-vs-DESIGN comparison."""

    cells_checked: int = 0
    violations: List[str] = field(default_factory=list)  # unsound -> fail
    pessimism: List[str] = field(default_factory=list)  # allowed, reported

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "cells_checked": self.cells_checked,
            "violations": list(self.violations),
            "pessimism": list(self.pessimism),
        }

    def render(self) -> str:
        lines = [f"cross-check: {self.cells_checked} cell(s)"]
        for v in self.violations:
            lines.append(f"  UNSOUND: {v}")
        for p in self.pessimism:
            lines.append(f"  pessimistic: {p}")
        lines.append("cross-check " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def crosscheck(
    static_cells: Dict[Tuple[str, str], str],
    observed: Optional[Dict[Tuple[str, str], Dict]] = None,
    design_ifp: Optional[Dict[str, bool]] = None,
) -> CrosscheckReport:
    """Compare static verdicts against observations and the hand table.

    ``static_cells`` maps ``(bench, policy_name)`` to a verdict string.
    Either reference may be omitted (``None`` skips that comparison).
    """
    report = CrosscheckReport()
    for (bench, policy), verdict in sorted(static_cells.items()):
        report.cells_checked += 1
        canon = canonical_policy_name(policy)
        obs = observed.get((bench, policy)) if observed else None
        if obs is not None:
            if obs["deadlocked"] and verdict == MUST_COMPLETE:
                report.violations.append(
                    f"{bench}/{policy}: static MUST_COMPLETE but the "
                    f"differential run deadlocked ({obs['reason']})")
            if obs["ok"] and verdict == MAY_DEADLOCK and \
                    design_ifp and design_ifp.get(canon, False):
                report.pessimism.append(
                    f"{bench}/{policy}: static MAY_DEADLOCK, but the run "
                    "completed and DESIGN.md grants the policy IFP")
        if design_ifp is not None and canon in design_ifp:
            if not design_ifp[canon] and verdict == MUST_COMPLETE:
                report.violations.append(
                    f"{bench}/{policy}: static MUST_COMPLETE contradicts "
                    "DESIGN.md IFP table entry 'no'")
    # A verdict string outside the vocabulary is a programming error.
    bad = {v for v in static_cells.values()
           if v not in (MUST_COMPLETE, MAY_DEADLOCK, UNKNOWN)}
    for v in sorted(bad):
        report.violations.append(f"unknown verdict value {v!r}")
    return report
