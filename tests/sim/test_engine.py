"""Unit tests for the discrete-event engine.

Every behavioral test runs twice via the parametrized ``env`` fixture:
on the production binary heap (``reference``) and on the naive
per-timestamp oracle queue in :mod:`tests.sim.calendar_oracle`
(``calendar``). The oracle only counts as ground truth for the
differential suite if it meets the same contract.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event
from tests.sim.calendar_oracle import CalendarOracle

QUEUES = {"calendar": CalendarOracle, "reference": Engine}


@pytest.fixture(params=sorted(QUEUES))
def env(request):
    return QUEUES[request.param]()


def _queued(env):
    """Every queued entry (the heap plus the lane)."""
    if isinstance(env, CalendarOracle):
        return env.queued()
    return ([(fn, args) for (_, _, fn, args) in env._heap]
            + list(env._lane or ()))


def test_clock_starts_at_zero(env):
    assert env.now == 0


def test_timeout_advances_clock(env):
    env.timeout(10)
    env.run()
    assert env.now == 10


def test_events_fire_in_time_order(env):
    order = []
    env.timeout(30).add_callback(lambda e: order.append(30))
    env.timeout(10).add_callback(lambda e: order.append(10))
    env.timeout(20).add_callback(lambda e: order.append(20))
    env.run()
    assert order == [10, 20, 30]


def test_same_cycle_events_fire_fifo(env):
    order = []
    for i in range(5):
        env.timeout(7).add_callback(lambda e, i=i: order.append(i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_fifo_order_across_ring_and_overflow_lanes(env):
    """Events landing at one timestamp, some scheduled far ahead and some
    scheduled shortly before it (the overflow and ring lanes of a
    bucketed calendar queue), fire in global scheduling order: the
    far-ahead ones were scheduled first."""
    order = []
    target = 2148  # > 2048 cycles out, past a typical bucketed-queue window
    env.timeout(target).add_callback(lambda e: order.append("far0"))
    env.timeout(target).add_callback(lambda e: order.append("far1"))
    env.timeout(50).add_callback(
        lambda e: env.timeout(target - env.now).add_callback(
            lambda e2: order.append("near0")))
    env.timeout(60).add_callback(
        lambda e: env.timeout(target - env.now).add_callback(
            lambda e2: order.append("near1")))
    env.run()
    assert order == ["far0", "far1", "near0", "near1"]
    assert env.now == target


def test_negative_delay_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_run_until_stops_early(env):
    fired = []
    env.timeout(5).add_callback(lambda e: fired.append(5))
    env.timeout(50).add_callback(lambda e: fired.append(50))
    env.run(until=10)
    assert fired == [5]
    assert env.now == 10


def test_run_until_resumes(env):
    fired = []
    env.timeout(50).add_callback(lambda e: fired.append(50))
    env.run(until=10)
    env.run()
    assert fired == [50]
    assert env.now == 50


def test_run_until_before_now_raises(env):
    """The clock never goes back: with ``now`` at 50 and entries still
    queued, ``run(until=20)`` raises and leaves the clock and the queue
    as they were, so later schedules still land after what has fired."""
    env.timeout(50)
    env.timeout(80)
    env.run(until=50)
    assert env.now == 50
    with pytest.raises(SimulationError):
        env.run(until=20)
    assert env.now == 50
    assert env.metrics()["pending"] == 1
    fired = []
    env.timeout(10).add_callback(lambda e: fired.append(env.now))
    env.run()
    assert fired == [60]
    assert env.now == 80


def test_run_returns_event_count(env):
    for i in range(4):
        env.timeout(i + 1)
    assert env.run() == 4


def test_step_returns_false_when_idle(env):
    assert env.step() is False


def test_call_at_runs_callable(env):
    seen = []
    env.call_at(12, lambda: seen.append(env.now))
    env.call_at(12, seen.append, "arg")
    env.run()
    assert seen == [12, "arg"]


def test_callbacks_run_in_the_order_they_were_added(env):
    """The first callback sits in a slot, later ones in a list; all run
    in the order they were added, and one added after firing runs at
    once."""
    order = []
    ev = env.timeout(3)
    for name in ("first", "second", "third", "fourth"):
        ev.add_callback(lambda e, name=name: order.append(name))
    env.run()
    assert order == ["first", "second", "third", "fourth"]
    ev.add_callback(lambda e: order.append("late"))
    assert order[-1] == "late"


def test_scheduling_during_callback(env):
    order = []

    def chain(_ev):
        order.append(env.now)
        if env.now < 30:
            env.timeout(10).add_callback(chain)

    env.timeout(10).add_callback(chain)
    env.run()
    assert order == [10, 20, 30]


def test_event_scheduled_twice_raises(env):
    ev = Event(env)
    ev.succeed(delay=1)
    with pytest.raises(SimulationError):
        ev.succeed(delay=2)


# -- run() batching edge cases -------------------------------------------------

def test_run_until_exactly_next_event_time_with_ties(env):
    """`until` equal to the next timestamp fires the WHOLE same-cycle
    batch (including delay-0 events those firings schedule), and the
    clock does not overshoot."""
    order = []
    for i in range(3):
        env.timeout(10).add_callback(lambda e, i=i: order.append(i))
    env.timeout(10).add_callback(
        lambda e: env.timeout(0).add_callback(lambda e2: order.append("z")))
    env.timeout(11).add_callback(lambda e: order.append("late"))
    env.run(until=10)
    assert order == [0, 1, 2, "z"]
    assert env.now == 10
    assert env.metrics()["pending"] == 1
    env.run()
    assert order == [0, 1, 2, "z", "late"]


def test_step_splits_a_same_timestamp_batch(env):
    """Single steps can split a same-timestamp batch; the remainder
    fires, in FIFO order, on the next run()."""
    order = []
    for i in range(5):
        env.timeout(10).add_callback(lambda e, i=i: order.append(i))
    assert all(env.step() for _ in range(3))
    assert order == [0, 1, 2]
    assert env.now == 10
    assert env.metrics()["pending"] == 2
    assert env.run() == 2
    assert order == [0, 1, 2, 3, 4]
    assert env.now == 10


def test_run_rejects_reentrant_run(env):
    caught = []

    def reenter(_ev):
        with pytest.raises(SimulationError):
            env.run()
        caught.append(True)

    env.timeout(1).add_callback(reenter)
    env.run()
    assert caught == [True]


def test_drain_batches_rejects_reentrant_entry(env):
    caught = []

    def reenter(_ev):
        with pytest.raises(SimulationError):
            env.drain_batches(100, lambda: False)
        caught.append(True)

    env.timeout(1).add_callback(reenter)
    env.drain_batches(100, lambda: False)
    assert caught == [True]


def test_drain_batches_stops_at_boundary_and_halt(env):
    fired = []
    for t in (5, 5, 10, 20):
        env.timeout(t).add_callback(lambda e: fired.append(env.now))
    # boundary is exclusive: the event AT the boundary does not fire
    assert env.drain_batches(10, lambda: False) == 2
    assert fired == [5, 5]
    assert env.now == 5
    # halt is only consulted between timestamps, never splits a batch
    halted = env.drain_batches(100, lambda: len(fired) >= 3)
    assert halted == 1
    assert fired == [5, 5, 10]


# -- incremental pending-entry counter ----------------------------------------

def test_pending_events_matches_scan_oracle(env):
    """The incrementally maintained ``pending`` metric equals a full scan
    of the queue after every schedule and every step."""
    import random

    rng = random.Random(42)
    for _ in range(400):
        if rng.random() < 0.6:
            env.timeout(rng.randrange(0, 50))
        else:
            for _ in range(rng.randrange(1, 5)):
                env.step()
        assert env.metrics()["pending"] == len(_queued(env))
    env.run()
    assert env.metrics()["pending"] == len(_queued(env)) == 0


# -- observability metrics ----------------------------------------------------

def test_metrics_track_peak_pending_and_fired(env):
    for i in range(8):
        env.timeout(i + 1)
    env.run()
    m = env.metrics()
    assert m["peak_pending"] == 8
    assert m["pending"] == 0
    assert m["fired"] == 8


# -- the zero-delay lane of drain_batches --------------------------------------

def _drain(env):
    return env.drain_batches(1_000_000, lambda: False)


def test_zero_delay_entry_fires_after_everything_queued_at_now(env):
    """A zero-delay entry scheduled mid-batch fires at the same cycle,
    after every entry already queued for it: ones scheduled far ahead,
    ones scheduled shortly before, in scheduling order; zero-delay
    entries it schedules in turn come after it."""
    order = []
    target = 3000

    def mark(name):
        order.append((name, env.now))

    def first(_ev):
        mark("far0")
        env.timeout(0).add_callback(lambda e: (
            mark("zero0"), env.call_at(0, mark, "zero2")))
        env.call_at(0, mark, "zero1")

    env.timeout(target).add_callback(first)
    env.timeout(target).add_callback(lambda e: mark("far1"))
    env.timeout(target - 10).add_callback(
        lambda e: env.timeout(10).add_callback(lambda e2: mark("near")))
    env.timeout(target + 1).add_callback(lambda e: mark("later"))
    assert _drain(env) == 8
    assert order == [("far0", target), ("far1", target), ("near", target),
                     ("zero0", target), ("zero1", target), ("zero2", target),
                     ("later", target + 1)]
    assert env.metrics()["pending"] == 0
    assert env.metrics()["fired"] == 8


def test_lane_survives_a_raising_entry_in_order(env):
    """An entry that raises mid-batch leaves the rest of the batch queued
    at ``now``, in order, for the next run."""
    order = []

    def boom(_ev):
        env.timeout(0).add_callback(lambda e: order.append("z0"))
        env.timeout(0).add_callback(lambda e: order.append("z1"))
        raise RuntimeError("boom")

    env.timeout(5).add_callback(boom)
    env.timeout(7).add_callback(lambda e: order.append("late"))
    with pytest.raises(RuntimeError):
        _drain(env)
    assert env.metrics()["pending"] == 3
    env.run()
    assert order == ["z0", "z1", "late"]
