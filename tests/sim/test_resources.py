"""Unit tests for FIFO resources."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import FifoResource


@pytest.fixture
def env():
    return Engine()


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
