"""FIFO-arbitrated resources.

Used to model hardware units that serve one request at a time (or a small
number in parallel): SIMD issue ports, L2 cache banks, the DRAM channel
scheduler and the command processor. Requests queue in FIFO order and each
holds the resource for a caller-specified service time.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class FifoResource:
    """A resource with ``slots`` parallel servers and a FIFO queue.

    ``service(cycles)`` returns an event that fires when the request has
    *completed* service (queueing delay + service time).
    """

    def __init__(self, env: "Engine", name: str, slots: int = 1) -> None:
        if slots < 1:
            raise SimulationError(f"resource {name!r} needs >= 1 slot")
        self.env = env
        self.name = name
        self.slots = slots
        self._busy = 0
        self._queue: Deque[Tuple[Event, int]] = deque()  # (done, cycles)

    def service(self, cycles: int) -> Event:
        """Request ``cycles`` of service; returns the completion event."""
        if cycles < 0:
            raise SimulationError("negative service time")
        done = Event(self.env)
        if self._busy < self.slots:
            self._busy += 1
            self.env.call_at(cycles, self._finish, done)
        else:
            self._queue.append((done, cycles))
        return done

    def _finish(self, done: Event) -> None:
        # a direct-call entry: the finish timer is no Event of its own
        self._busy -= 1
        done.try_succeed()
        if self._queue and self._busy < self.slots:
            nxt, cycles = self._queue.popleft()
            self._busy += 1
            self.env.call_at(cycles, self._finish, nxt)
