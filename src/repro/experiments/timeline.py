"""Figure 6: the wait signatures of the scheduling policies.

``trace_run`` runs FAM_G on a tiny oversubscription-prone machine with
the ``wg`` trace category on, and ``table()`` counts each policy's
waits from that trace: a wait runs from a WG entering STALLED to its
next RUNNING, and a saved wait's restore is *timer* when a retry timer
fired during it, else *notified*. The table's notes draw the same
spans as ASCII strips, one character per time bucket.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.policies import PolicySpec, awg, monnr_all, monnr_one, timeout
from repro.experiments.report import ExperimentResult
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU, RunResult
from repro.gpu.workgroup import WGState
from repro.trace import TraceConfig
from repro.trace.tracer import WG_TRACK_PREFIX
from repro.workloads.registry import build_benchmark

_GLYPH = {
    WGState.PENDING: ".",
    WGState.RUNNING: "R",
    WGState.STALLED: "s",
    WGState.SWITCHING_OUT: "x",
    WGState.SWITCHED_OUT: "o",
    WGState.READY: "r",
    WGState.RESUMING: "i",
    WGState.DONE: "#",
}

_LEGEND = ("legend: . pending  R running  s stalled  x saving  "
           "o switched-out  r ready  i restoring  # done")

#: the four policies Figure 6 draws
POLICIES = [timeout(20_000), monnr_all(), monnr_one(), awg()]
MONITOR_POLICIES = ("MonNR-All", "MonNR-One")

WAITS, SAVES, MAX_SAVES = "waits", "saves", "max saves/wait"
STALL_FIRST = "stalled, then saved"
TIMER, NOTIFIED = "timer restores", "notified restores"


def glyph_for(state: WGState) -> str:
    """The strip character for one WG state.

    Raises rather than rendering a blank for an unmapped state — a new
    ``WGState`` member must be given a glyph here, not silently vanish
    from every timeline."""
    try:
        return _GLYPH[state]
    except KeyError:
        known = ", ".join(s.name for s in _GLYPH)
        raise ValueError(
            f"no timeline glyph for {state!r}; add it to "
            f"experiments.timeline._GLYPH (known: {known})"
        ) from None


def trace_run(policy: PolicySpec) -> Tuple[GPU, RunResult]:
    """Run FAM_G on a tiny oversubscription-prone machine (6 WGs, 2 CUs
    of 2 slots each) with the ``wg`` trace category on."""
    config = GPUConfig(
        num_cus=2,
        max_wgs_per_cu=2,
        trace=TraceConfig(categories=("wg",)),
        deadlock_window=250_000,
    )
    gpu = GPU(config, policy)
    gpu.launch(build_benchmark("FAM_G", gpu, total_wgs=6, wgs_per_group=3,
                               iterations=2))
    return gpu, gpu.run()


def render_timeline(gpu: GPU, width: int = 100) -> List[str]:
    """An ASCII strip of every WG's state over the whole run, after a
    line giving the time scale."""
    wg_ids = [wg.wg_id for wg in gpu.wgs]
    end = max(1, gpu.env.now)
    bucket = max(1, end // width)
    per_wg: Dict[int, List[tuple]] = {wg_id: [] for wg_id in wg_ids}
    for cycle, wg_id, state in gpu.state_trace:
        per_wg.setdefault(wg_id, []).append((cycle, state))
    lines = [f"one column = {bucket:,} cycles; run = {end:,} cycles"]
    for wg_id in wg_ids:
        steps = per_wg[wg_id]
        strip = []
        state = WGState.PENDING
        idx = 0
        for col in range(width):
            t = col * bucket
            while idx < len(steps) and steps[idx][0] <= t:
                state = steps[idx][1]
                idx += 1
            strip.append(glyph_for(state))
        lines.append(f"WG{wg_id:>3d} |{''.join(strip)}|")
    return lines


def wait_signature(gpu: GPU) -> Dict[str, int]:
    """Count the run's waits, their saves and how their restores came,
    from each WG's trace in ``(cycle, seq)`` order."""
    counts = dict.fromkeys((WAITS, SAVES, MAX_SAVES, STALL_FIRST, TIMER,
                            NOTIFIED), 0)
    waits: Dict[str, dict] = {}  # the open wait of each WG track
    for rec in gpu.tracer.events():
        track = rec["track"]
        if not track.startswith(WG_TRACK_PREFIX):
            continue
        wait = waits.get(track)
        if rec["ph"] == "i":
            if wait is not None and rec["name"].startswith("retry:"):
                wait["timer"] = True
            continue
        state = WGState(rec["name"])
        if state is WGState.STALLED and wait is None:
            counts[WAITS] += 1
            waits[track] = {"since": rec["ts"], "saves": 0, "timer": False}
        elif wait is None:
            continue
        elif state is WGState.SWITCHING_OUT:
            counts[SAVES] += 1
            if wait["saves"] == 0 and rec["ts"] > wait["since"]:
                counts[STALL_FIRST] += 1
            wait["saves"] += 1
        elif state is WGState.RUNNING:
            del waits[track]
            counts[MAX_SAVES] = max(counts[MAX_SAVES], wait["saves"])
            if wait["saves"]:
                counts[TIMER if wait["timer"] else NOTIFIED] += 1
    return counts


def table() -> ExperimentResult:
    result = ExperimentResult(
        title="Figure 6: wait signatures, FAM_G with 6 WGs on 2 CUs x 2 "
              "WG slots (traced)",
        columns=["cycles", WAITS, SAVES, MAX_SAVES, STALL_FIRST, TIMER,
                 NOTIFIED],
        row_label="policy",
    )
    for policy in POLICIES:
        gpu, outcome = trace_run(policy)
        cycles = (outcome.cycles if outcome.ok
                  else f"DEADLOCK ({outcome.reason})")
        result.add_row(policy.name, cycles=cycles, **wait_signature(gpu))
        result.notes += [f"{policy.name:<11s} {line}"
                         for line in render_timeline(gpu, width=72)]
    result.notes.append(_LEGEND)
    return result


def check(result: ExperimentResult) -> None:
    """Assert Figure 6's three signatures: Timeout saves and restores
    periodically, on its timer; the monitor policies switch out at most
    once per wait and are restored by a notify; AWG stalls before it
    switches."""
    data = result.data
    assert all(isinstance(row["cycles"], int) for row in data.values())
    timeout_row = data["Timeout-20k"]
    assert timeout_row[SAVES] > 0
    assert timeout_row[TIMER] == timeout_row[SAVES]
    assert timeout_row[NOTIFIED] == 0
    for name in MONITOR_POLICIES:
        row = data[name]
        assert row[SAVES] > 0, name
        assert row[MAX_SAVES] == 1, name
        assert row[NOTIFIED] == row[SAVES], name
        assert row[STALL_FIRST] == 0, name
    assert data["AWG"][SAVES] > 0
    assert data["AWG"][STALL_FIRST] == data["AWG"][SAVES]
