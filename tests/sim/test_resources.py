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
    assert done.fired and env.now == 10


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
    assert done.fired and env.now == 0


def test_negative_service_rejected(env):
    res = FifoResource(env, "r")
    with pytest.raises(SimulationError):
        res.service(-5)


def test_zero_slots_rejected(env):
    with pytest.raises(SimulationError):
        FifoResource(env, "r", slots=0)


def test_queue_depth_tracking(env):
    res = FifoResource(env, "r")
    depths = []
    for _ in range(5):
        res.service(10)
        depths.append(res.queue_depth)
    assert depths == [0, 1, 2, 3, 4]
    env.run()
    assert res.queue_depth == 0


def test_queue_cycles_accounting(env):
    res = FifoResource(env, "r")
    res.service(10)
    queued = res.service(10)  # queues for 10 cycles, then serves 10
    done_at = []
    queued.add_callback(lambda e: done_at.append(env.now))
    env.run()
    assert done_at == [20]


def test_busy_count(env):
    res = FifoResource(env, "r", slots=2)
    res.service(10)
    res.service(10)
    assert res.busy == 2
    env.run()
    assert res.busy == 0


def test_utilization(env):
    # busy for the 10 service cycles, idle for the 10 after them
    res = FifoResource(env, "r")
    res.service(10)
    busy = []
    for t in (5, 15):
        env.call_at(t, lambda: busy.append(res.busy))
    env.run()
    assert busy == [1, 0] and env.now == 15


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
    assert first.fired and second.fired
    assert env.now == 7  # 3 + 4 service cycles, back to back
