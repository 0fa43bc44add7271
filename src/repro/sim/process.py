"""Generator-based simulation processes.

A process wraps a Python generator. The generator yields
:class:`~repro.sim.events.Event` objects; when an event fires the process
is resumed with the event's value as the result of the ``yield``
expression. Processes are themselves events — they fire with the
generator's return value — so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import _FIRED, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator; fires (as an event) when the generator ends."""

    __slots__ = ("name", "_gen", "_waiting_on")

    def __init__(self, env: "Engine", generator: Generator, name: str = "") -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process needs a generator, got {type(generator)!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._waiting_on: Optional[Event] = None
        # Start on the next engine tick at the current time so creation
        # order does not leak into execution order mid-callback.
        env.call_at(0, self._resume, None, None)

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.fired:
            return
        # The event the process was waiting for may still fire later; the
        # stale callback checks _waiting_on identity and ignores it.
        self._waiting_on = None
        self.env.call_at(0, self._resume, None, Interrupt(cause))

    def _resume(self, value: object, exc: Optional[BaseException]) -> None:
        if self._state is _FIRED:
            return
        self._waiting_on = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.try_succeed(stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: terminate quietly.
            self.try_succeed(None)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
        self._waiting_on = target
        target.add_callback(self._wakeup)

    def _wakeup(self, event: Event) -> None:
        # Bound method instead of a per-yield closure: the identity check
        # against _waiting_on already rejects stale wakeups (an event the
        # process abandoned — e.g. after an interrupt — firing later), so
        # the closure's captured target added nothing but allocations.
        if self._waiting_on is event:
            self._resume(event._value, None)
