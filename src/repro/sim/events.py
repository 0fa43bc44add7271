"""One-shot events and the first-of composite."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

Callback = Callable[["Event"], None]

_PENDING = "pending"
_SCHEDULED = "scheduled"
_FIRED = "fired"


class Event:
    """A one-shot completion event.

    Lifecycle: *pending* → *scheduled* (its ``fire`` sitting in the
    engine queue) → *fired* (callbacks run, value available).
    ``succeed`` schedules the event at the current time; ``try_succeed``
    is the idempotent variant used by racy notifiers (e.g. a resume
    racing a timeout). A scheduled event always fires.
    """

    __slots__ = ("env", "_state", "_value", "_cb", "_more")

    def __init__(self, env: "Engine") -> None:
        self.env = env
        self._state = _PENDING
        self._value: object = None
        # Nearly every event has exactly one observer (the process that
        # yielded it), so the first callback sits in a slot and a list is
        # allocated only for the second; pure delays (quantum ticks) get
        # none at all.
        self._cb: Optional[Callback] = None
        self._more: Optional[List[Callback]] = None

    # -- state ---------------------------------------------------------
    @property
    def value(self) -> object:
        if self._state is not _FIRED:
            raise SimulationError("event value read before it fired")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: object = None, delay: int = 0) -> "Event":
        """Schedule this event to fire ``delay`` cycles from now.

        The event's value is set at fire time; scheduling an already-fired
        or already-scheduled event is an error."""
        if self._state is not _PENDING:
            raise SimulationError("event scheduled twice")
        self.env.call_at(delay, self.fire)
        self._state = _SCHEDULED
        self._value = value
        return self

    def try_succeed(self, value: object = None) -> bool:
        """Schedule this event to fire now, unless it is already scheduled
        or fired; returns whether it did."""
        if self._state is not _PENDING:
            return False
        # succeed() inlined: this is the relay every memory reply and
        # process exit goes through
        self.env.call_at(0, self.fire)
        self._state = _SCHEDULED
        self._value = value
        return True

    def fire(self) -> None:
        """Run the callbacks. Called from the engine queue only: queued by
        ``succeed``, or as the continuation of
        :meth:`~repro.sim.resources.FifoResource.service`."""
        self._state = _FIRED
        cb = self._cb
        if cb is not None:
            self._cb = None
            cb(self)
            more = self._more
            if more is not None:
                self._more = None
                for cb in more:
                    cb(self)

    # -- observers -----------------------------------------------------
    def add_callback(self, cb: Callback) -> None:
        """Run ``cb(event)`` when the event fires (immediately if fired).
        Callbacks run in the order they were added."""
        if self._state is _FIRED:
            cb(self)
        elif self._cb is None:
            self._cb = cb
        elif self._more is None:
            self._more = [cb]
        else:
            self._more.append(cb)


class AnyOf(Event):
    """Fires when the first of its children fires.

    The value is a ``(index, value)`` pair identifying which child won.
    Losing children are left alone (they may fire later harmlessly).
    """

    __slots__ = ("children",)

    def __init__(self, env: "Engine", children: Iterable[Event]) -> None:
        super().__init__(env)
        self.children: List[Event] = list(children)
        if not self.children:
            raise SimulationError("AnyOf needs at least one child event")
        for child in self.children:
            child.add_callback(self._child_fired)

    def _child_fired(self, child: Event) -> None:
        if self._state is _PENDING:
            self.try_succeed((self.children.index(child), child._value))
