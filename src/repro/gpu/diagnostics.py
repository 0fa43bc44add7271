"""Structured progress-watchdog diagnostics.

When the watchdog declares a run dead, a prose message ("watchdog at
cycle N") is not enough to debug a scheduling policy or to assert the
DESIGN.md IFP table in a fault campaign. :func:`build_stall_report`
walks every unfinished WG and records *what it is waiting for and
where it is stuck*, machine-readably:

- the WG state and whether it still holds CU residency,
- the waiting condition (address, expected value, exclusive hint),
- where the condition is registered (SyncMon condition cache, CP
  spilled table, or nowhere — a busy-waiting policy),
- how many cycles the WG has spent in its current state.

:func:`classify_stagnation` is the watchdog's deadlock-vs-livelock
verdict: livelock means the machine keeps executing instructions
(progress events) without any condition ever advancing — e.g. polling
loops that burn ALU cycles — whereas deadlock means nothing executes at
all (busy-wait atomics execute no compute and are invisible to the
progress counter by design).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu import GPU
    from repro.gpu.workgroup import WorkGroup


def _condition_home(gpu: "GPU", wg: "WorkGroup") -> str:
    """Where the WG's waiting condition is tracked, if anywhere."""
    cond = wg.cond
    if cond is None:
        return "none"
    entry = gpu.syncmon._find(cond)
    if entry is not None and wg.wg_id in entry.waiters:
        return "syncmon"
    spilled = gpu.cp.spilled.get((cond.addr, cond.expected))
    if spilled and wg.wg_id in spilled:
        return "cp-spilled"
    return "unregistered"


def build_stall_report(gpu: "GPU") -> List[Dict[str, Any]]:
    """Per-WG stall entries for every unfinished WG, in wg_id order."""
    from repro.gpu.workgroup import WGState  # local import (cycle)

    now = gpu.env.now
    report: List[Dict[str, Any]] = []
    for wg in gpu.wgs:
        if wg.state is WGState.DONE:
            continue
        cond = wg.cond
        report.append({
            "wg_id": wg.wg_id,
            "kernel": wg.kernel.name,
            "state": wg.state.value,
            "resident": wg.resident,
            "cu": wg.cu.cu_id if wg.cu is not None else None,
            "cycles_in_state": now - wg._state_since,
            "condition": (
                {
                    "addr": cond.addr,
                    "expected": cond.expected,
                    "exclusive": cond.exclusive,
                    "current_value": gpu.store.read(cond.addr),
                    "tracked_by": _condition_home(gpu, wg),
                }
                if cond is not None
                else None
            ),
            "wait_episodes": wg.wait_episodes,
            "context_switches": wg.context_switches,
        })
    return report


def classify_stagnation(progress_stalled: bool) -> str:
    """The watchdog verdict: no progress events at all is a deadlock;
    progress events without condition advancement is a livelock."""
    return "deadlock" if progress_stalled else "livelock"


def diagnosis_signature(
    diagnosis: Optional[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """The stable identity of a watchdog diagnosis for replay/shrink
    comparison: the verdict kind only. Cycle counts, WG ids and stall
    reports all legitimately change as a failing scenario is minimized,
    but a deadlock must still reproduce as a deadlock (and a livelock as
    a livelock) for the repro to be the *same* failure."""
    if not diagnosis:
        return None
    return {"kind": diagnosis.get("kind")}

