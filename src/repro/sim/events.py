"""One-shot events and composite events for the simulation engine."""

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

    Lifecycle: *pending* → *scheduled* (sitting in the engine heap) →
    *fired* (callbacks run, value available). ``succeed`` schedules the
    event at the current time; ``try_succeed`` is the idempotent variant
    used by racy notifiers (e.g. a resume racing a timeout). ``cancel``
    marks a scheduled event dead so the heap skips it.
    """

    __slots__ = ("env", "_state", "_value", "_callbacks", "cancelled")

    def __init__(self, env: "Engine") -> None:
        self.env = env
        self._state = _PENDING
        self._value: object = None
        # lazily allocated: most timeouts get at most one observer, and
        # pure delays (quantum ticks) get none at all
        self._callbacks: Optional[List[Callback]] = None
        self.cancelled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled or fired."""
        return self._state != _PENDING

    @property
    def fired(self) -> bool:
        return self._state == _FIRED

    @property
    def value(self) -> object:
        if self._state != _FIRED:
            raise SimulationError("event value read before it fired")
        return self._value

    # -- triggering ----------------------------------------------------
    def mark_scheduled(self, value: object) -> None:
        if self._state != _PENDING:
            raise SimulationError("event scheduled twice")
        self._state = _SCHEDULED
        self._value = value

    def succeed(self, value: object = None, delay: int = 0) -> "Event":
        """Schedule this event to fire ``delay`` cycles from now."""
        self.env.schedule(self, delay=delay, value=value)
        return self

    def try_succeed(self, value: object = None, delay: int = 0) -> bool:
        """Like :meth:`succeed` but a no-op if already triggered."""
        if self.triggered or self.cancelled:
            return False
        self.succeed(value, delay=delay)
        return True

    def cancel(self) -> None:
        """Mark the event dead; it will never fire."""
        if self._state == _FIRED:
            raise SimulationError("cannot cancel a fired event")
        if self.cancelled:
            return
        self.cancelled = True
        if self._state == _SCHEDULED:
            # keep the engine's live-event counter in sync: the entry
            # stays in the heap but will be skipped, not fired
            self.env.note_cancelled()

    def fire(self) -> None:
        if self.cancelled:
            return
        if self._state != _SCHEDULED:
            raise SimulationError("firing an event that was not scheduled")
        self._state = _FIRED
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    # -- observers -----------------------------------------------------
    def add_callback(self, cb: Callback) -> None:
        """Run ``cb(event)`` when the event fires (immediately if fired)."""
        if self._state == _FIRED:
            cb(self)
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    __slots__ = ()

    def __init__(self, env: "Engine", delay: int, value: object = None) -> None:
        super().__init__(env)
        env.schedule(self, delay=delay, value=value)


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
        for idx, child in enumerate(self.children):
            child.add_callback(self._make_cb(idx))

    def _make_cb(self, idx: int) -> Callback:
        def _cb(child: Event) -> None:
            self.try_succeed((idx, child.value))

        return _cb


class AllOf(Event):
    """Fires once all children have fired; value is the list of values."""

    __slots__ = ("children", "_remaining")

    def __init__(self, env: "Engine", children: Iterable[Event]) -> None:
        super().__init__(env)
        self.children = list(children)
        self._remaining = len(self.children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self.children:
            child.add_callback(self._child_done)

    def _child_done(self, _child: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self.children])
