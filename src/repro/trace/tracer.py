"""The event tracer: a bounded ring of typed events.

Design constraints (the tentpole's acceptance criteria):

- **Never perturbs the simulation.** The tracer schedules no events,
  consumes no randomness and touches no simulated state; timestamps are
  read from the engine clock. A traced run and an untraced run of the
  same seed are cycle-identical.
- **Zero-cost when off.** Call sites guard on ``gpu.tracer is None``;
  category filtering inside the tracer is one frozenset lookup.
- **Bit-deterministic.** Events carry a global sequence number; exports
  sort by ``(ts, seq)`` so two runs of the same seed produce
  byte-identical trace files.
- **Bounded.** The ring holds :data:`~repro.trace.config.BUFFER_SIZE` events;
  overflow drops the oldest and increments ``dropped``.
- **Records, never counts.** Quantities a figure reads come from the
  GPU's stats; the tracer only logs events.

Event kinds map onto Chrome ``trace_event`` phases: spans → ``"X"``
(complete events), instants → ``"i"``, counter samples → ``"C"``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.trace.config import BUFFER_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.trace.config import TraceConfig

#: WG tracks are named ``wg/<id>``; everything else is a singleton track
WG_TRACK_PREFIX = "wg/"


def wg_track(wg_id: int) -> str:
    return f"{WG_TRACK_PREFIX}{wg_id}"


class Tracer:
    """Records spans/instants/counters for one GPU run."""

    def __init__(self, env: "Engine", config: "TraceConfig") -> None:
        self.env = env
        self.config = config
        self.categories = frozenset(config.categories)
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=BUFFER_SIZE)
        #: open spans: track -> {"cat","name","ts","seq","args"}
        self._open: Dict[str, Dict[str, Any]] = {}
        self._seq = 0
        self.recorded = 0
        self.dropped = 0
        self.finished = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, record: Dict[str, Any]) -> None:
        ring = self._ring
        if ring.maxlen is not None and len(ring) >= ring.maxlen:
            self.dropped += 1
        ring.append(record)
        self.recorded += 1

    def instant(self, cat: str, name: str, track: str = "sim", **args) -> None:
        """A one-shot occurrence (Chrome phase ``"i"``)."""
        if cat not in self.categories:
            return
        self._push({
            "ph": "i", "cat": cat, "name": name, "ts": self.env.now,
            "track": track, "args": args, "seq": self._next_seq(),
        })

    def counter(self, cat: str, name: str, value: int) -> None:
        """Sample a named occupancy counter (Chrome phase ``"C"``)."""
        if cat not in self.categories:
            return
        self._push({
            "ph": "C", "cat": cat, "name": name, "ts": self.env.now,
            "track": name, "args": {"value": value},
            "seq": self._next_seq(),
        })

    def set_span(self, cat: str, track: str, name: str, **args) -> None:
        """Enter a new span on ``track``, closing the previous one at the
        current cycle. Per-track spans are therefore contiguous and never
        overlap (the per-WG state-machine invariant)."""
        if cat not in self.categories:
            return
        self._close(track)
        self._open[track] = {
            "cat": cat, "name": name, "ts": self.env.now,
            "args": args, "seq": self._next_seq(),
        }

    def _close(self, track: str) -> None:
        span = self._open.pop(track, None)
        if span is None:
            return
        self._push({
            "ph": "X", "cat": span["cat"], "name": span["name"],
            "ts": span["ts"], "dur": self.env.now - span["ts"],
            "track": track, "args": span["args"], "seq": span["seq"],
        })

    def finish(self) -> None:
        """Close every open span at the current cycle (end of run)."""
        for track in sorted(self._open):
            self._close(track)
        self.finished = True

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        """All retained events (plus still-open spans as zero-ended
        snapshots), sorted by ``(ts, seq)``."""
        out = list(self._ring)
        now = self.env.now
        for track, span in self._open.items():
            out.append({
                "ph": "X", "cat": span["cat"], "name": span["name"],
                "ts": span["ts"], "dur": now - span["ts"],
                "track": track, "args": span["args"], "seq": span["seq"],
            })
        out.sort(key=lambda r: (r["ts"], r["seq"]))
        return out

    def wg_transitions(self) -> List[Tuple[int, int, str]]:
        """(cycle, wg_id, state_name) transitions derived from the "wg"
        span stream — the legacy ``GPU.state_trace`` view."""
        out = []
        for rec in self.events():
            if rec["ph"] == "X" and rec["track"].startswith(WG_TRACK_PREFIX):
                out.append(
                    (rec["ts"], int(rec["track"][len(WG_TRACK_PREFIX):]),
                     rec["name"])
                )
        return out

    def export_chrome(self, label: Optional[str] = None) -> Dict[str, Any]:
        """Chrome/Perfetto ``trace_event`` JSON document (as a dict).

        Timestamps are raw core cycles used as trace microseconds
        (1 ts == 1 cycle) so exports are integer-exact and
        bit-deterministic; ``otherData.clock`` records the convention.
        """
        from repro.trace.export import build_chrome_trace

        return build_chrome_trace(self, label=label)
