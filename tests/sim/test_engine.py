"""Unit tests for the discrete-event engine.

Every behavioral test runs twice via the parametrized ``env`` fixture:
on the production binary heap (``reference``) and on the naive
per-timestamp oracle queue in :mod:`tests.sim.calendar_oracle`
(``calendar``). The oracle only counts as ground truth for the
differential suite if it meets the same contract.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import COMPACT_MIN_DEAD, Engine
from repro.sim.events import Event
from tests.sim.calendar_oracle import CalendarOracle

QUEUES = {"calendar": CalendarOracle, "reference": Engine}


@pytest.fixture(params=sorted(QUEUES))
def env(request):
    return QUEUES[request.param]()


def _queued(env):
    """Every physically queued entry, live or dead."""
    if isinstance(env, CalendarOracle):
        return env.queued()
    return [ev for (_, _, ev) in env._heap] + list(env._lane or ())


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


def test_cancelled_event_never_fires(env):
    fired = []
    ev = env.timeout(5)
    ev.add_callback(lambda e: fired.append(1))
    ev.cancel()
    env.run()
    assert fired == []


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


def test_pending_events_counts_live_only(env):
    a = env.timeout(1)
    env.timeout(2)
    a.cancel()
    assert env.pending_events() == 1


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
    assert env.pending_events() == 1
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
    assert env.pending_events() == 2
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


# -- incremental live-event counter -------------------------------------------

def _scan_pending_events(env):
    """The original O(n) full-queue scan, kept as the oracle for the
    incrementally maintained counter behind ``pending_events()``."""
    return sum(1 for ev in _queued(env) if not ev.cancelled)


def test_pending_events_matches_scan_oracle(env):
    import random

    rng = random.Random(42)
    live = []
    for _ in range(400):
        action = rng.random()
        if action < 0.5 or not live:
            live.append(env.timeout(rng.randrange(0, 50)))
        elif action < 0.75:
            ev = live.pop(rng.randrange(len(live)))
            if not ev.fired:
                ev.cancel()
        else:
            for _ in range(rng.randrange(1, 5)):
                env.step()
            live = [ev for ev in live if not ev.fired]
        assert env.pending_events() == _scan_pending_events(env)
    env.run()
    assert env.pending_events() == _scan_pending_events(env) == 0


def test_pending_events_double_cancel_counts_once(env):
    ev = env.timeout(5)
    env.timeout(6)
    ev.cancel()
    ev.cancel()
    assert env.pending_events() == 1


def test_cancel_unscheduled_event_does_not_underflow(env):
    Event(env).cancel()  # pending, never queued
    assert env.pending_events() == 0


def test_fused_run_skips_cancelled_head(env):
    fired = []
    a = env.timeout(1)
    env.timeout(2).add_callback(lambda e: fired.append(2))
    a.cancel()
    assert env.run() == 1
    assert fired == [2]
    assert env.now == 2


def test_run_until_with_only_cancelled_events_left(env):
    # the queue drains (modulo cancelled residue) before `until`; the
    # clock stays at the last event
    a = env.timeout(20)
    env.timeout(2)
    a.cancel()
    env.run(until=10)
    assert env.now == 2
    assert env.pending_events() == 0


# -- lazy-deletion compaction --------------------------------------------------

FAR = 1_000_000  # far-future timers, like the 100k-cycle policy backstops


def test_cancel_storm_keeps_physical_size_bounded(env):
    """Scheduling then cancelling 10k far-future events must not leave
    10k dead entries queued: threshold compaction reclaims them."""
    events = [env.timeout(FAR + i) for i in range(10_000)]
    assert len(_queued(env)) == 10_000
    for ev in events:
        ev.cancel()
    assert env.pending_events() == 0
    # geometric compaction cadence: at most a sub-threshold residue stays
    assert len(_queued(env)) <= COMPACT_MIN_DEAD
    m = env.metrics()
    assert m["compactions"] > 0
    assert m["cancelled_reaped"] + m["dead_pending"] == 10_000


def test_interleaved_cancel_storm_stays_small(env):
    """schedule+cancel churn (a preemption storm cancelling its own
    timers) keeps the physical queue near-empty at every point."""
    peak = 0
    for i in range(10_000):
        env.timeout(FAR + i).cancel()
        peak = max(peak, len(_queued(env)))
    assert peak < 256
    assert len(_queued(env)) < 256


def test_compaction_preserves_fifo_order_of_survivors(env):
    order = []
    keep = []
    for i in range(200):
        ev = env.timeout(10)
        ev.add_callback(lambda e, i=i: order.append(i))
        keep.append((i, ev))
    # cancel every odd event; enough dead to cross the threshold
    for i, ev in keep:
        if i % 2:
            ev.cancel()
    env.run()
    assert order == [i for i in range(200) if i % 2 == 0]


def test_compaction_during_active_run_is_safe(env):
    """A callback cancelling enough events to trigger compaction must not
    disturb the batch currently being drained."""
    order = []
    victims = [env.timeout(FAR + i) for i in range(200)]

    def cancel_all(_ev):
        order.append("cancel")
        for v in victims:
            v.cancel()

    env.timeout(5).add_callback(cancel_all)
    for i in range(3):
        env.timeout(5).add_callback(lambda e, i=i: order.append(i))
    env.timeout(6).add_callback(lambda e: order.append("after"))
    env.run()
    assert order == ["cancel", 0, 1, 2, "after"]
    assert len(_queued(env)) == 0


# -- step() accounting (the drain feeds compaction statistics) ----------------

def test_step_drain_feeds_compaction_accounting(env):
    a = env.timeout(5)
    env.timeout(9)
    a.cancel()
    assert env.metrics()["dead_pending"] == 1
    assert env.step() is True
    assert env.now == 9
    m = env.metrics()
    assert m["dead_pending"] == 0
    assert m["cancelled_reaped"] == 1


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
    assert env.pending_events() == 0
    assert env.metrics()["fired"] == 8


def test_cancelled_lane_entry_is_skipped_and_counted(env):
    order = []
    seen_pending = []

    def schedule_and_cancel(_ev):
        doomed = env.timeout(0)
        doomed.add_callback(lambda e: order.append("doomed"))
        env.timeout(0).add_callback(lambda e: order.append("kept"))
        before = env.pending_events()
        doomed.cancel()
        seen_pending.append((before, env.pending_events()))

    env.timeout(5).add_callback(schedule_and_cancel)
    assert _drain(env) == 2
    assert order == ["kept"]
    assert seen_pending == [(2, 1)]
    m = env.metrics()
    assert (m["pending"], m["dead_pending"], m["cancelled_reaped"]) == (0, 0, 1)
    assert _queued(env) == []


def test_cancel_storm_in_the_lane_compacts_it(env):
    """Cancelling many zero-delay entries mid-batch compacts the lane like
    the heap: the physical queue stays small and every dead entry is
    reaped exactly once."""
    order = []
    sizes = []

    def storm(_ev):
        lane = [env.timeout(0) for _ in range(200)]
        for ev in lane:
            ev.cancel()
        sizes.append(len(_queued(env)))
        env.timeout(0).add_callback(lambda e: order.append("after"))

    env.timeout(5).add_callback(storm)
    env.timeout(6).add_callback(lambda e: order.append("next"))
    assert _drain(env) == 3
    assert order == ["after", "next"]
    assert sizes[0] < COMPACT_MIN_DEAD + 1
    m = env.metrics()
    assert m["compactions"] == 2
    assert m["cancelled_reaped"] == 200
    assert m["dead_pending"] == 0 and m["pending"] == 0


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
    assert env.pending_events() == 3
    env.run()
    assert order == ["z0", "z1", "late"]
