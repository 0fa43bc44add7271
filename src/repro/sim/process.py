"""Generator-based simulation processes.

A process wraps a Python generator. It waits in one of two ways:

- It yields an :class:`~repro.sim.events.Event` when more than one
  party can wake it (a wait episode's ``AnyOf``, a gate, a barrier, a
  done event). When the event fires the process is resumed with the
  event's value as the result of the ``yield`` expression.
- It yields :data:`QUEUED` when its op has already queued the call that
  resumes it: a single-waiter stage (an issue slot, a fixed delay, a
  memory reply) calls the process's ``_resume`` with the value directly,
  so it needs no event, no fire and no wakeup.

Any other yield is an error. Processes are themselves events — they fire
with the generator's return value — so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import SimulationError
from repro.sim.events import _FIRED, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

#: yielded by a process whose op has already queued ``_resume(value)``
QUEUED = object()


class Process(Event):
    """A running generator; fires (as an event) when the generator ends."""

    __slots__ = ("name", "_gen", "_wake")

    def __init__(self, env: "Engine", generator: Generator, name: str = "") -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(f"Process needs a generator, got {type(generator)!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        #: the wakeup bound once: each event yield registers exactly one,
        #: for the event the process now waits on
        self._wake = self._wakeup
        # Start on the next engine tick at the current time so creation
        # order does not leak into execution order mid-callback.
        env.call_at(0, self._resume, None)

    def _resume(self, value: object) -> None:
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self.try_succeed(stop.value)
            return
        if target is QUEUED:
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Events or QUEUED"
            )
        if target._cb is None and target._state is not _FIRED:
            # add_callback inlined for the usual case: a lone observer
            target._cb = self._wake
        else:
            target.add_callback(self._wake)

    def _wakeup(self, event: Event) -> None:
        self._resume(event._value)
