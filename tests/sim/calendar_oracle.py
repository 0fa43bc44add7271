"""A deliberately naive second event queue, used as a test oracle.

:class:`CalendarOracle` keeps a calendar of one FIFO "day" list per
timestamp and finds the next event with ``min()`` over the days, so its
firing order is (time, scheduling order) by construction. It shares
:class:`~repro.sim.engine.Engine`'s lazy-cancellation and compaction
accounting rules (a dead entry is reaped when it would have been the
next to fire), so every observable surface — event order, stats,
``engine.*`` metrics, traces, final memory — must match the production
binary heap exactly.

The engine unit tests run against both queues (``env`` ids
``reference`` for the production heap, ``calendar`` for this oracle)
and the differential suite
(``tests/integration/test_engine_differential.py``) pins whole
simulations of the heap against it. It is far too slow for real runs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.errors import SimulationError
from repro.sim.engine import COMPACT_MIN_DEAD, Engine
from repro.sim.events import Event


class CalendarOracle(Engine):
    """Per-timestamp FIFO lists; next event = head of the earliest day."""

    def __init__(self) -> None:
        super().__init__()
        self._days: Dict[int, Deque[Event]] = {}

    def physical_size(self) -> int:
        """Queued entries, live and dead (``len(Engine._heap)``)."""
        return sum(len(day) for day in self._days.values())

    def queued(self):
        """Every physically queued event, live or dead."""
        return [ev for day in self._days.values() for ev in day]

    def schedule(self, event: Event, delay: int = 0, value: object = None) -> Event:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        event.mark_scheduled(value)
        self._days.setdefault(self._now + delay, deque()).append(event)
        self._live += 1
        self._peak_pending = max(self._peak_pending, self._live)
        return event

    def note_cancelled(self) -> None:
        self._live -= 1
        self._dead += 1
        if (self._dead >= COMPACT_MIN_DEAD
                and self._dead * 2 >= self.physical_size()):
            self._compact()

    def _compact(self) -> None:
        removed = self._dead
        for when in list(self._days):
            keep = [ev for ev in self._days[when] if not ev.cancelled]
            if keep:
                self._days[when] = deque(keep)
            else:
                del self._days[when]
        self._dead = 0
        self._compactions += 1
        self._compacted_entries += removed
        self._reaped += removed

    def _next_time(self) -> Optional[int]:
        """Timestamp of the next live event, reaping dead heads."""
        while self._days:
            when = min(self._days)
            day = self._days[when]
            while day and day[0].cancelled:
                day.popleft()
                self._dead -= 1
                self._reaped += 1
            if day:
                return when
            del self._days[when]
        return None

    def _fire(self, when: int) -> None:
        event = self._days[when].popleft()
        if when < self._now:
            raise SimulationError("event time went backwards")
        self._now = when
        self._live -= 1
        self._fired += 1
        event.fire()

    def _enter(self) -> None:
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True

    def peek(self) -> Optional[int]:
        return self._next_time()

    def step(self) -> bool:
        when = self._next_time()
        if when is None:
            return False
        self._fire(when)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        self._enter()
        processed = 0
        try:
            while True:
                when = self._next_time()
                if when is None:
                    break
                if until is not None and when > until:
                    self._now = until
                    break
                if max_events is not None and processed >= max_events:
                    break
                self._fire(when)
                processed += 1
        finally:
            self._running = False
        return processed

    def drain_batches(self, boundary: int, should_halt: Callable[[], bool]) -> int:
        self._enter()
        fired = 0
        try:
            while True:
                t = self._next_time()
                if t is None or t >= boundary or should_halt():
                    break
                while self._next_time() == t:
                    self._fire(t)
                    fired += 1
        finally:
            self._running = False
        return fired
