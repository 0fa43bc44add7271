"""Unit tests for FIFO resources."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import FifoResource
from tests.sim.calendar_oracle import CalendarOracle

QUEUES = {"calendar": CalendarOracle, "reference": Engine}


@pytest.fixture
def env():
    return Engine()


@pytest.fixture(params=sorted(QUEUES))
def queue(request):
    """An engine on the production heap or on the oracle queue."""
    return QUEUES[request.param]()


def test_single_request_takes_service_time(env):
    res = FifoResource(env, "r")
    done = res.service(10)
    env.run()
    # a service event fires with value None; reading it earlier raises
    assert done.value is None and env.now == 10


def test_requests_serialize_fifo(env):
    res = FifoResource(env, "r")
    times = []
    for i in range(3):
        res.service(10).add_callback(lambda e, i=i: times.append((i, env.now)))
    env.run()
    assert times == [(0, 10), (1, 20), (2, 30)]


def test_multi_slot_parallelism(env):
    res = FifoResource(env, "r", slots=2)
    times = []
    for i in range(4):
        res.service(10).add_callback(lambda e, i=i: times.append((i, env.now)))
    env.run()
    assert times == [(0, 10), (1, 10), (2, 20), (3, 20)]


def test_zero_cycle_service(env):
    res = FifoResource(env, "r")
    done = res.service(0)
    env.run()
    assert done.value is None and env.now == 0


def test_negative_service_rejected(env):
    res = FifoResource(env, "r")
    with pytest.raises(SimulationError):
        res.service(-5)


def test_zero_slots_rejected(env):
    with pytest.raises(SimulationError):
        FifoResource(env, "r", slots=0)


def test_queue_depth_tracking(env):
    # five back-to-back requests: the k-th waits behind k others
    res = FifoResource(env, "r")
    done = []
    for i in range(5):
        res.service(10).add_callback(lambda e, i=i: done.append((i, env.now)))
    env.run()
    assert done == [(i, 10 * (i + 1)) for i in range(5)]


def test_queue_cycles_accounting(env):
    res = FifoResource(env, "r")
    res.service(10)
    queued = res.service(10)  # queues for 10 cycles, then serves 10
    done_at = []
    queued.add_callback(lambda e: done_at.append(env.now))
    env.run()
    assert done_at == [20]


def test_busy_count(env):
    # two slots, three requests: the third takes the first freed slot
    res = FifoResource(env, "r", slots=2)
    done = []
    for i, cycles in enumerate((10, 4, 10)):
        res.service(cycles).add_callback(
            lambda e, i=i: done.append((i, env.now)))
    env.run()
    assert done == [(1, 4), (0, 10), (2, 14)]


def test_utilization(env):
    # busy for the 10 service cycles, idle for the 10 after them: a
    # request arriving at cycle 20 is served at once
    res = FifoResource(env, "r")
    done = []
    res.service(10).add_callback(lambda e: done.append(env.now))
    env.call_at(20, lambda: res.service(10).add_callback(
        lambda e: done.append(env.now)))
    env.run()
    assert done == [10, 30]


def test_late_arrival_after_idle(env):
    res = FifoResource(env, "r")
    done_times = []
    res.service(5).add_callback(lambda e: done_times.append(env.now))
    env.run()
    env.timeout(20)
    env.run()
    res.service(5).add_callback(lambda e: done_times.append(env.now))
    env.run()
    assert done_times == [5, 30]


def test_total_requests_and_service(env):
    res = FifoResource(env, "r")
    first, second = res.service(3), res.service(4)
    env.run()
    assert first.value is None and second.value is None
    assert env.now == 7  # 3 + 4 service cycles, back to back


# -- completions: request() continuations and service() events -----------------

def test_completions_fire_from_the_lane_in_finish_order(queue):
    """A ``request`` continuation and a ``service`` event that finish in
    the same cycle fire in the order their requests finished, after every
    entry the heap holds for that cycle."""
    env = queue
    first, second, third = (FifoResource(env, n) for n in "abc")
    order = []
    second.service(10).add_callback(lambda e: order.append("b-event"))
    first.request(10, order.append, "a-cont")
    third.request(10, order.append, "c-cont")
    env.call_at(10, order.append, "heap")
    env.run()
    assert order == ["heap", "b-event", "a-cont", "c-cont"]
    assert env.now == 10
    assert env.metrics()["fired"] == 7  # 3 finishes, 3 completions, 1 call


def test_queued_continuations_fire_in_fifo_order(queue):
    """Requests queued behind a busy server complete one service time
    apart, continuations and events alike, in the order they queued."""
    env = queue
    res = FifoResource(env, "r")
    done = []
    for i in range(4):
        if i % 2:
            res.service(5).add_callback(
                lambda e, i=i: done.append((i, env.now)))
        else:
            res.request(5, lambda i: done.append((i, env.now)), i)
    env.run()
    assert done == [(0, 5), (1, 10), (2, 15), (3, 20)]


def test_parallel_slots_complete_in_fifo_order(queue):
    """Two slots: requests that finish in the same cycle complete in the
    order they were made, and a queued one takes the first freed slot."""
    env = queue
    res = FifoResource(env, "r", slots=2)
    done = []
    for i in range(5):
        res.request(4, lambda i: done.append((i, env.now)), i)
    env.run()
    assert done == [(0, 4), (1, 4), (2, 8), (3, 8), (4, 12)]
