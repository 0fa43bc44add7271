"""Unit tests for generator-based processes."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import AnyOf, Event
from repro.sim.process import Process


@pytest.fixture
def env():
    return Engine()


def test_process_runs_and_returns(env):
    def gen():
        yield env.timeout(5)
        yield env.timeout(7)
        return "done"

    proc = Process(env, gen())
    env.run()
    assert proc.value == "done"
    assert proc.value == "done"
    assert env.now == 12


def test_yield_receives_event_value(env):
    got = []

    def gen():
        v = yield Event(env).succeed(42, 3)
        got.append(v)

    Process(env, gen())
    env.run()
    assert got == [42]


def test_process_is_waitable_event(env):
    def child():
        yield env.timeout(10)
        return "child-result"

    def parent():
        result = yield Process(env, child())
        return f"got:{result}"

    parent_proc = Process(env, parent())
    env.run()
    assert parent_proc.value == "got:child-result"


def test_yield_from_subgenerator(env):
    def sub():
        yield env.timeout(4)
        return 99

    def gen():
        v = yield from sub()
        return v + 1

    proc = Process(env, gen())
    env.run()
    assert proc.value == 100


def test_yield_non_event_raises(env):
    def gen():
        yield 42

    Process(env, gen())
    with pytest.raises(SimulationError):
        env.run()


def test_non_generator_rejected(env):
    with pytest.raises(SimulationError):
        Process(env, lambda: None)


def test_anyof_in_process(env):
    def gen():
        idx, value = yield AnyOf(env, [Event(env).succeed("slow", 50),
                                       Event(env).succeed("fast", 5)])
        return (idx, value)

    proc = Process(env, gen())
    env.run()
    assert proc.value == (1, "fast")


def test_two_processes_interleave(env):
    trace = []

    def worker(name, delay):
        for _ in range(3):
            yield env.timeout(delay)
            trace.append((env.now, name))

    Process(env, worker("a", 10))
    Process(env, worker("b", 15))
    env.run()
    # at t=30 both are due; b's event was scheduled first (at t=15) so it
    # fires first (FIFO within a cycle)
    assert trace == [(10, "a"), (15, "b"), (20, "a"), (30, "b"), (30, "a"),
                     (45, "b")]


def test_immediate_return(env):
    def gen():
        return "instant"
        yield  # pragma: no cover

    proc = Process(env, gen())
    env.run()
    assert proc.value == "instant"
