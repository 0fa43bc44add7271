"""Chrome/Perfetto ``trace_event`` JSON export and validation.

The emitted document uses the *JSON Array with metadata* flavour of the
trace_event format: ``{"traceEvents": [...], "displayTimeUnit": ...}``.
Span events use phase ``"X"`` (complete), one-shots phase ``"i"``
(thread-scoped instants), occupancy samples phase ``"C"`` (counters),
and per-track names are published through ``"M"`` metadata events —
exactly the subset both ``chrome://tracing`` and https://ui.perfetto.dev
accept. Timestamps are simulated core cycles used as trace microseconds
(1 ts == 1 cycle), keeping exports integer-exact and bit-deterministic.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.tracer import Tracer

from repro.trace.tracer import WG_TRACK_PREFIX

#: single simulated device = single trace process
PID = 1

_VALID_PHASES = {"X", "i", "C", "M"}


def _track_order(tracks: List[str]) -> List[str]:
    """WG tracks first (numeric order), then the subsystem tracks."""
    wg = sorted(
        (t for t in tracks if t.startswith(WG_TRACK_PREFIX)),
        key=lambda t: int(t[len(WG_TRACK_PREFIX):]),
    )
    other = sorted(t for t in tracks if not t.startswith(WG_TRACK_PREFIX))
    return wg + other


def build_chrome_trace(
    tracer: "Tracer", label: Optional[str] = None
) -> Dict[str, Any]:
    """Render one :class:`Tracer`'s ring into a trace_event document."""
    records = tracer.events()
    tids = {
        track: i + 1
        for i, track in enumerate(_track_order(
            sorted({rec["track"] for rec in records})
        ))
    }

    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": PID, "tid": 0,
        "args": {"name": label or "awg-repro"},
    }]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append({
            "ph": "M", "name": "thread_name", "pid": PID, "tid": tid,
            "args": {"name": track},
        })
        events.append({
            "ph": "M", "name": "thread_sort_index", "pid": PID, "tid": tid,
            "args": {"sort_index": tid},
        })

    for rec in records:
        ev: Dict[str, Any] = {
            "ph": rec["ph"], "name": rec["name"], "cat": rec["cat"],
            "ts": rec["ts"], "pid": PID, "tid": tids[rec["track"]],
            "args": rec["args"],
        }
        if rec["ph"] == "X":
            ev["dur"] = rec["dur"]
        elif rec["ph"] == "i":
            ev["s"] = "t"  # thread-scoped instant
        events.append(ev)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label or "awg-repro",
            "clock": "1 trace microsecond == 1 simulated core cycle",
            "generator": "repro.trace",
        },
        # repro-specific sidecar (ignored by Chrome/Perfetto importers):
        # how much the ring kept, and which categories it recorded.
        "awg": {
            "recorded": tracer.recorded,
            "dropped": tracer.dropped,
            "categories": list(tracer.config.categories),
        },
    }


def write_chrome_trace(doc: Dict[str, Any], path) -> None:
    """Serialize deterministically (sorted keys, no float timestamps)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_chrome_trace(doc: Any) -> List[str]:
    """Return every way ``doc`` violates the trace_event schema subset we
    emit; an empty list means the file will load in Perfetto."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["top level must be a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a JSON array"]
    if not events:
        problems.append("traceEvents is empty")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: event must be an object")
            continue
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: missing/non-string name")
        if not isinstance(ev.get("pid"), int):
            problems.append(f"{where}: missing/non-integer pid")
        if not isinstance(ev.get("tid"), int):
            problems.append(f"{where}: missing/non-integer tid")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args must be an object")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, int) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative integer")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(
                    f"{where}: X event needs a non-negative integer dur"
                )
        if ph == "i" and ev.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: bad instant scope {ev.get('s')!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: C event args must be numeric")
    return problems

