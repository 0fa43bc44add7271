"""A deliberately naive second event queue, used as a test oracle.

:class:`CalendarOracle` keeps a calendar of one FIFO "day" list per
timestamp and finds the next event with ``min()`` over the days, so its
firing order is (time, scheduling order) by construction. It keeps
:class:`~repro.sim.engine.Engine`'s pending and fired counts, so every
observable surface — event order, stats, ``engine.*`` metrics, traces,
final memory — must match the production binary heap exactly.

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
from repro.sim.engine import Engine, Entry


class CalendarOracle(Engine):
    """Per-timestamp FIFO lists; next event = head of the earliest day."""

    def __init__(self) -> None:
        super().__init__()
        self._days: Dict[int, Deque[Entry]] = {}

    def queued(self):
        """Every queued ``(fn, args)`` entry."""
        return [ev for day in self._days.values() for ev in day]

    def call_at(self, delay: int, fn: Callable[..., None], *args) -> None:
        # the one way into the queue: events, direct calls, every delay
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._days.setdefault(self._now + delay, deque()).append((fn, args))
        self._live += 1
        self._peak_pending = max(self._peak_pending, self._live)

    def _next_time(self) -> Optional[int]:
        """Timestamp of the next event (no day is ever kept empty)."""
        return min(self._days) if self._days else None

    def _fire(self, when: int) -> None:
        day = self._days[when]
        fn, args = day.popleft()
        if not day:
            del self._days[when]
        if when < self._now:
            raise SimulationError("event time went backwards")
        self._now = when
        self._live -= 1
        self._fired += 1
        fn(*args)

    def _enter(self) -> None:
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True

    def step(self) -> bool:
        when = self._next_time()
        if when is None:
            return False
        self._fire(when)
        return True

    def drain_batches(self, boundary: int, halting: bool = True) -> int:
        self._enter()
        fired = 0
        try:
            while True:
                t = self._next_time()
                if t is None or t >= boundary or (halting and self.halted):
                    break
                while self._next_time() == t:
                    self._fire(t)
                    fired += 1
        finally:
            self._running = False
        return fired
