"""FIFO-arbitrated resources.

Used to model hardware units that serve one request at a time (or a small
number in parallel): SIMD issue ports, L2 cache banks, the DRAM channel
scheduler and the command processor. Requests queue in FIFO order and each
holds the resource for a caller-specified service time.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class FifoResource:
    """A resource with ``slots`` parallel servers and a FIFO queue.

    ``request(cycles, fn, *args)`` calls ``fn(*args)`` when the request
    has *completed* service (queueing delay + service time);
    ``service(cycles)`` returns an event that fires then instead. Either
    way the completion is one zero-delay queue entry, scheduled when the
    request finishes.
    """

    def __init__(self, env: "Engine", name: str, slots: int = 1) -> None:
        if slots < 1:
            raise SimulationError(f"resource {name!r} needs >= 1 slot")
        self.env = env
        self.name = name
        self.slots = slots
        self._busy = 0
        #: waiting requests: (cycles, fn, args)
        self._queue: Deque[Tuple[int, Callable[..., None], tuple]] = deque()

    def service(self, cycles: int) -> Event:
        """Request ``cycles`` of service; returns the completion event."""
        done = Event(self.env)
        self.request(cycles, done.fire)
        return done

    def request(self, cycles: int, fn: Callable[..., None], *args) -> None:
        """Request ``cycles`` of service; call ``fn(*args)`` once it has
        completed."""
        if cycles < 0:
            raise SimulationError("negative service time")
        if self._busy < self.slots:
            self._busy += 1
            self.env.call_at(cycles, self._finish, fn, args)
        else:
            self._queue.append((cycles, fn, args))

    def _finish(self, fn: Callable[..., None], args: tuple) -> None:
        self._busy -= 1
        # the continuation takes the next zero-delay slot
        self.env.call_at(0, fn, *args)
        if self._queue and self._busy < self.slots:
            cycles, nfn, nargs = self._queue.popleft()
            self._busy += 1
            self.env.call_at(cycles, self._finish, nfn, nargs)
