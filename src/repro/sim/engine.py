"""The discrete-event simulation engine.

The engine owns the simulation clock (an integer cycle count) and the
set of scheduled entries, kept in one binary heap of
``(time, seq, fn, args)`` tuples plus a zero-delay FIFO lane of
``(fn, args)`` pairs. Every entry is a call ``fn(*args)``. An Event
only where more than one party can wake a process; single-waiter stages
queue the resume. So an :class:`~repro.sim.events.Event` queues its own
``fire`` (a process yields one when several parties may wake it, see
:mod:`repro.sim.process`), while the fixed latencies of the device-op
path queue the bound method that continues the op, the last of them the
waiting process's ``_resume``. Every schedule goes through
:meth:`Engine.call_at`.

**Determinism contract.** Entries scheduled for the same cycle fire in
FIFO order of scheduling (the ``seq`` tie-break), so a run's event
order, stats, traces and final memory are a pure function of its
inputs. The golden stat corpus (``tests/golden``) and the benchmark's
recorded cell digests pin that order, and
``tests/integration/test_engine_differential.py`` checks it against a
naive per-timestamp oracle queue.

**Zero-delay lane.** About half of all schedules are zero-delay relays
(a resource's continuation after its finish, a process exit).
While :meth:`Engine.drain_batches` fires the batch at ``now``, such an
entry is appended to a deque instead of being pushed on the heap. Each
timestamp fires its heap entries first, then the lane. That is the
heap's own order: nothing can add a heap entry at ``now`` while the
batch runs (a zero-delay entry goes to the lane, any other one lands
later), so every lane entry was scheduled after every heap entry at
``now`` and would have drawn a larger ``seq``. Outside
``drain_batches`` zero-delay entries go on the heap.

A scheduled entry always fires. Waits follow Mesa semantics (a WG parks
on ``AnyOf(resume, evict, timer)`` and re-checks its condition when it
wakes), so the wake-ups that lose the race fire harmlessly and nothing
is ever withdrawn from the queue.

A calendar queue is faster than this heap on synthetic event drains,
but not on the system benchmark's workloads, and it uses more memory
(EXPERIMENTS.md, "System benchmark").
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event

#: a queued call ``fn(*args)``
Entry = Tuple[Callable[..., None], tuple]


class Engine:
    """Simulation clock plus a binary heap of ``(time, seq, fn, args)``
    and the zero-delay lane of the batch being drained."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._running = False
        self._heap: List[Tuple[int, int, Callable[..., None], tuple]] = []
        #: zero-delay entries at ``now``; only exists while drain_batches
        #: runs (None otherwise, when zero-delay entries go on the heap)
        self._lane: Optional[Deque[Entry]] = None
        #: scheduled entries not yet fired, heap and lane together
        self._live: int = 0
        #: set by the owner of the run (the GPU) when nothing is left to
        #: wait for; drain_batches stops at the next timestamp once it is
        self.halted = False
        # -- observability (engine.* counters in the trace layer) ------
        self._peak_pending: int = 0
        self._fired: int = 0

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def timeout(self, delay: int) -> Event:
        """Create an event that fires ``delay`` cycles from now."""
        return Event(self).succeed(None, delay)

    def call_at(self, delay: int, fn: Callable[..., None], *args) -> None:
        """Call ``fn(*args)`` after ``delay`` cycles (fire-and-forget).

        Every schedule goes through here, events included, so a queue
        with another layout overrides only this (the test oracle queue
        does)."""
        lane = self._lane
        if lane is not None and delay == 0:
            lane.append((fn, args))
        elif delay >= 0:
            self._seq += 1
            heappush(self._heap, (self._now + delay, self._seq, fn, args))
        else:
            raise SimulationError(f"negative delay: {delay}")
        live = self._live + 1
        self._live = live
        if live > self._peak_pending:
            self._peak_pending = live

    # -- observability --------------------------------------------------
    def metrics(self) -> Dict[str, int]:
        """Scheduler observability counters (``engine.*`` in traces).

        Reading them never perturbs a run: they are plain integers
        maintained by the normal schedule/fire paths."""
        return {
            "peak_pending": self._peak_pending,
            "pending": self._live,
            "fired": self._fired,
            # always 0 (nothing is withdrawn); the benchmark's layer
            # report reads this key
            "cancelled_reaped": 0,
        }

    # -- firing ----------------------------------------------------------
    def step(self) -> bool:
        """Fire the next entry. Returns False if the queue is empty."""
        heap = self._heap
        if not heap:
            return False
        when, _seq, fn, args = heappop(heap)
        if when < self._now:
            raise SimulationError("event heap time went backwards")
        self._now = when
        self._live -= 1
        self._fired += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or ``until`` cycles pass. Returns the
        number of entries fired.

        Entries scheduled exactly at ``until`` still fire; the clock only
        advances to ``until`` when a strictly later entry remains. An
        ``until`` before ``now`` is an error: the clock never goes back.
        :attr:`halted` does not stop it."""
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is before now ({self._now})")
        boundary = float("inf") if until is None else until + 1
        fired = self.drain_batches(boundary, halting=False)
        if until is not None and self._live:
            self._now = until
        return fired

    def drain_batches(self, boundary: int, halting: bool = True) -> int:
        """Fire whole same-timestamp batches while the next entry is
        strictly before ``boundary`` and (if ``halting``) :attr:`halted`
        is not set; the flag is read only between timestamps. Returns the
        number of entries fired.

        This is the hot API behind :meth:`repro.gpu.gpu.GPU.run`: the
        caller performs its (rare) watchdog / cycle-budget checks at
        batch boundaries instead of paying per-event Python dispatch,
        and sets :attr:`halted` itself at the few points where its
        completion condition can change. Zero-delay entries scheduled
        meanwhile go to the lane (see the module docstring)."""
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
                t = heap[0][0]
                if t >= boundary:
                    break
                if halting and self.halted:
                    break
                if t < self._now:
                    raise SimulationError("event heap time went backwards")
                self._now = t
                # the heap entries at t first
                while heap and heap[0][0] == t:
                    _t, _seq, fn, args = heappop(heap)
                    self._live -= 1
                    fn(*args)
                    fired += 1
                # then every zero-delay entry the batch scheduled, FIFO
                while lane:
                    fn, args = popleft()
                    self._live -= 1
                    fn(*args)
                    fired += 1
        finally:
            self._lane = None
            # an entry that raised leaves the rest of the lane behind: it
            # goes on the heap, after the heap entries at now, in order
            for fn, args in lane:
                self._seq += 1
                heappush(heap, (self._now, self._seq, fn, args))
            self._running = False
            self._fired += fired
        return fired
