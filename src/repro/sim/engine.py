"""The discrete-event simulation engine.

The engine owns the simulation clock (an integer cycle count) and the
set of scheduled entries, kept in one binary heap of
``(time, seq, entry)`` tuples plus a zero-delay FIFO lane. An entry is
an :class:`~repro.sim.events.Event` (processes yield events to wait for
them, see :mod:`repro.sim.process`) or a
:class:`~repro.sim.events.Call`, a bare ``fn(*args)`` timer for the
fixed latencies of the device-op path.

**Determinism contract.** Entries scheduled for the same cycle fire in
FIFO order of scheduling (the ``seq`` tie-break), so a run's event
order, stats, traces and final memory are a pure function of its
inputs. The golden stat corpus (``tests/golden``) and the benchmark's
recorded cell digests pin that order, and
``tests/integration/test_engine_differential.py`` checks it against a
naive per-timestamp oracle queue.

**Zero-delay lane.** About half of all schedules are zero-delay relays
(a resource finish succeeding its completion event, a process exit).
While :meth:`Engine.drain_batches` fires the batch at ``now``, such an
entry is appended to a deque instead of being pushed on the heap. Each
timestamp fires its heap entries first, then the lane. That is the
heap's own order: nothing can add a heap entry at ``now`` while the
batch runs (a zero-delay entry goes to the lane, any other one lands
later), so every lane entry was scheduled after every heap entry at
``now`` and would have drawn a larger ``seq``. Outside
``drain_batches`` zero-delay entries go on the heap.

Cancellation is lazy: a cancelled entry stays queued as garbage until
it would have been the next to fire, so preemption storms that cancel
many far-future timeouts would otherwise grow memory and pop cost
without bound. When dead entries cross a threshold the heap and the lane
are compacted in place (see :meth:`Engine.note_cancelled`).

A calendar queue is faster than this heap on synthetic event drains,
but not on the system benchmark's workloads, and it uses more memory
(EXPERIMENTS.md, "System benchmark").
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.sim.events import Call, Event

#: never compact below this many dead entries (tiny queues aren't worth it)
COMPACT_MIN_DEAD = 64

Entry = Union[Event, Call]


class Engine:
    """Simulation clock plus a binary heap of ``(time, seq, entry)`` and
    the zero-delay lane of the batch being drained."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        self._heap: List[Tuple[int, int, Entry]] = []
        #: zero-delay entries at ``now``; only exists while drain_batches
        #: runs (None otherwise, when zero-delay entries go on the heap)
        self._lane: Optional[Deque[Entry]] = None
        #: live (scheduled, non-cancelled) entries — maintained incrementally
        #: on schedule/cancel/fire so :meth:`pending_events` is O(1)
        self._live: int = 0
        #: cancelled entries still physically queued (lazy deletion debt)
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
        return Event(self).succeed(value, delay)

    def call_at(self, delay: int, fn: Callable[..., None], *args) -> None:
        """Call ``fn(*args)`` after ``delay`` cycles (fire-and-forget)."""
        self._enqueue(Call(fn, args), delay)

    def _enqueue(self, entry: Entry, delay: int) -> None:
        """Queue ``entry`` (an Event or a Call) to fire ``delay`` cycles
        from now. Every schedule goes through here, so a queue with
        another layout overrides only this (the test oracle queue does)."""
        lane = self._lane
        if lane is not None and delay == 0:
            lane.append(entry)
        elif delay >= 0:
            self._seq += 1
            heappush(self._heap, (self._now + delay, self._seq, entry))
        else:
            raise SimulationError(f"negative delay: {delay}")
        live = self._live + 1
        self._live = live
        if live > self._peak_pending:
            self._peak_pending = live

    # -- lazy-cancellation accounting ----------------------------------
    def note_cancelled(self) -> None:
        """A scheduled event was cancelled (called by :meth:`Event.cancel`).

        The queue entry stays behind as garbage; once dead entries are
        both numerous and the majority of the queue, compact in place so
        cancel-heavy runs (preemption storms cancelling far-future
        timeouts) keep bounded memory and pop cost."""
        self._live -= 1
        self._dead += 1
        if self._dead >= COMPACT_MIN_DEAD:
            lane = self._lane
            size = len(self._heap) + (len(lane) if lane else 0)
            if self._dead * 2 >= size:
                self._compact()

    def _compact(self) -> None:
        heap = self._heap
        removed = self._dead
        # in place, so aliases held by an active drain loop stay valid
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        lane = self._lane
        if lane:
            live = [entry for entry in lane if not entry.cancelled]
            lane.clear()
            lane.extend(live)
        self._dead = 0
        self._compactions += 1
        self._compacted_entries += removed
        self._reaped += removed

    def pending_events(self) -> int:
        """Number of live (non-cancelled) entries still scheduled.

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
        """Fire the next entry. Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            when, _seq, entry = heappop(heap)
            if entry.cancelled:
                self._dead -= 1
                self._reaped += 1
                continue
            if when < self._now:
                raise SimulationError("event heap time went backwards")
            self._now = when
            self._live -= 1
            self._fired += 1
            entry.fire()
            return True
        return False

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or ``until`` cycles pass. Returns the
        number of entries fired.

        Entries scheduled exactly at ``until`` still fire; the clock only
        advances to ``until`` when a strictly later entry remains."""
        boundary = float("inf") if until is None else until + 1
        fired = self.drain_batches(boundary, lambda: False)
        if until is not None and self._live:
            self._now = until
        return fired

    def drain_batches(self, boundary: int, should_halt: Callable[[], bool]) -> int:
        """Fire whole same-timestamp batches while the next entry is
        strictly before ``boundary``; re-check ``should_halt`` only
        between timestamps. Returns the number of entries fired.

        This is the hot API behind :meth:`repro.gpu.gpu.GPU.run`: the
        caller performs its (rare) watchdog / cycle-budget checks at
        batch boundaries instead of paying per-event Python dispatch.
        Zero-delay entries scheduled meanwhile go to the lane (see the
        module docstring)."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        lane: Deque[Entry] = deque()
        popleft = lane.popleft
        self._lane = lane
        fired = 0
        try:
            while heap:
                head = heap[0]
                if head[2].cancelled:
                    heappop(heap)
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
                # the heap entries at t first; a dead entry is reaped only
                # when it would have been the next to fire, so one at a
                # later time waits until the lane has drained
                while heap:
                    when, _seq, entry = heap[0]
                    if when != t:
                        break
                    heappop(heap)
                    if entry.cancelled:
                        self._dead -= 1
                        self._reaped += 1
                        continue
                    self._live -= 1
                    entry.fire()
                    fired += 1
                # then every zero-delay entry the batch scheduled, FIFO
                while lane:
                    entry = popleft()
                    if entry.cancelled:
                        self._dead -= 1
                        self._reaped += 1
                        continue
                    self._live -= 1
                    entry.fire()
                    fired += 1
        finally:
            self._lane = None
            # an entry that raised leaves the rest of the lane behind: it
            # goes on the heap, after the heap entries at now, in order
            for entry in lane:
                self._seq += 1
                heappush(heap, (self._now, self._seq, entry))
            self._running = False
            self._fired += fired
        return fired
