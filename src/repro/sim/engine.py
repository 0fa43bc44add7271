"""The discrete-event simulation engine.

The engine owns the simulation clock (an integer cycle count) and the
set of scheduled events, kept in one binary heap of
``(time, seq, event)`` entries. Components schedule
:class:`~repro.sim.events.Event` objects to fire after a delay;
processes (see :mod:`repro.sim.process`) yield events to wait for them.

**Determinism contract.** Events scheduled at the same cycle fire in
FIFO order of scheduling (the ``seq`` tie-break), so a run's event
order, stats, traces and final memory are a pure function of its
inputs. The golden stat corpus (``tests/golden``) and the benchmark's
recorded cell digests pin that order, and
``tests/integration/test_engine_differential.py`` checks it against a
naive per-timestamp oracle queue.

Cancellation is lazy: a cancelled event's heap entry is garbage until
its timestamp is reached, so preemption storms that cancel many
far-future timeouts would otherwise grow memory and pop cost without
bound. When dead entries cross a threshold the heap is compacted in
place (see :meth:`Engine.note_cancelled`).

A calendar queue is faster than this heap on synthetic event drains,
but not on the system benchmark's workloads, and it uses more memory
(EXPERIMENTS.md, "System benchmark").
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event

#: never compact below this many dead entries (tiny queues aren't worth it)
COMPACT_MIN_DEAD = 64


class Engine:
    """Simulation clock plus a binary heap of ``(time, seq, event)``."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        self._heap: List[Tuple[int, int, Event]] = []
        #: live (scheduled, non-cancelled) events — maintained incrementally
        #: on schedule/cancel/fire so :meth:`pending_events` is O(1)
        self._live: int = 0
        #: cancelled events still physically queued (lazy deletion debt)
        self._dead: int = 0
        # -- observability (engine.* counters in the trace layer) ------
        self._peak_pending: int = 0
        self._fired: int = 0
        self._reaped: int = 0
        self._compactions: int = 0
        self._compacted_entries: int = 0

    # -- clock and event factory ---------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def event(self) -> Event:
        """Create a fresh unfired event bound to this engine."""
        return Event(self)

    def timeout(self, delay: int, value: object = None) -> Event:
        """Create an event that fires ``delay`` cycles from now."""
        ev = Event(self)
        self.schedule(ev, delay=delay, value=value)
        return ev

    def call_at(self, delay: int, fn: Callable[[], None]) -> Event:
        """Invoke ``fn`` after ``delay`` cycles (fire-and-forget helper)."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _ev: fn())
        return ev

    def schedule(self, event: Event, delay: int = 0, value: object = None) -> Event:
        """Arrange for ``event`` to fire ``delay`` cycles from now.

        The event's value is set at fire time; scheduling an already-fired
        or already-scheduled event is an error.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        event.mark_scheduled(value)
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))
        live = self._live + 1
        self._live = live
        if live > self._peak_pending:
            self._peak_pending = live
        return event

    # -- lazy-cancellation accounting ----------------------------------
    def note_cancelled(self) -> None:
        """A scheduled event was cancelled (called by :meth:`Event.cancel`).

        The queue entry stays behind as garbage; once dead entries are
        both numerous and the majority of the queue, compact in place so
        cancel-heavy runs (preemption storms cancelling far-future
        timeouts) keep bounded memory and pop cost."""
        self._live -= 1
        self._dead += 1
        if (self._dead >= COMPACT_MIN_DEAD
                and self._dead * 2 >= len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        heap = self._heap
        removed = self._dead
        # in place, so aliases held by an active run() loop stay valid
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0
        self._compactions += 1
        self._compacted_entries += removed
        self._reaped += removed

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still scheduled.

        O(1): an incrementally maintained counter (the full-queue scan it
        replaces survives as the oracle in ``tests/sim/test_engine.py``).
        """
        return self._live

    # -- observability --------------------------------------------------
    def metrics(self) -> Dict[str, int]:
        """Scheduler observability counters (``engine.*`` in traces).

        Reading them never perturbs a run: they are plain integers
        maintained by the normal schedule/fire/cancel paths."""
        return {
            "peak_pending": self._peak_pending,
            "pending": self._live,
            "dead_pending": self._dead,
            "fired": self._fired,
            "cancelled_reaped": self._reaped,
            "compactions": self._compactions,
            "compacted_entries": self._compacted_entries,
        }

    # -- firing ----------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event. Returns False if the queue is empty."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, _seq, event = pop(heap)
            if event.cancelled:
                self._dead -= 1
                self._reaped += 1
                continue
            if when < self._now:
                raise SimulationError("event heap time went backwards")
            self._now = when
            self._live -= 1
            self._fired += 1
            event.fire()
            return True
        return False

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or ``until`` cycles pass. Returns the
        number of events processed.

        Events scheduled exactly at ``until`` still fire; the clock only
        advances to ``until`` when a strictly later event remains."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                when, _seq, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    self._dead -= 1
                    self._reaped += 1
                    continue
                if until is not None and when > until:
                    self._now = until
                    break
                pop(heap)
                if when < self._now:
                    raise SimulationError("event heap time went backwards")
                self._now = when
                self._live -= 1
                self._fired += 1
                event.fire()
                processed += 1
        finally:
            self._running = False
        return processed

    def drain_batches(self, boundary: int, should_halt: Callable[[], bool]) -> int:
        """Fire whole same-timestamp batches while the next event is
        strictly before ``boundary``; re-check ``should_halt`` only
        between timestamps. Returns the number of events fired.

        This is the hot API behind :meth:`repro.gpu.gpu.GPU.run`: the
        caller performs its (rare) watchdog / cycle-budget checks at
        batch boundaries instead of paying per-event Python dispatch."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        try:
            while heap:
                head = heap[0]
                if head[2].cancelled:
                    pop(heap)
                    self._dead -= 1
                    self._reaped += 1
                    continue
                t = head[0]
                if t >= boundary:
                    break
                if should_halt():
                    break
                if t < self._now:
                    raise SimulationError("event heap time went backwards")
                self._now = t
                # drain every event at t (including ones scheduled at t
                # by the events themselves) in one inner loop
                while heap:
                    when, _seq, event = heap[0]
                    if event.cancelled:
                        pop(heap)
                        self._dead -= 1
                        self._reaped += 1
                        continue
                    if when != t:
                        break
                    pop(heap)
                    self._live -= 1
                    event.fire()
                    fired += 1
        finally:
            self._running = False
        self._fired += fired
        return fired
