"""Unit tests for events and composite events."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import AnyOf, Event


@pytest.fixture
def env():
    return Engine()


def test_event_value_before_fire_raises(env):
    ev = Event(env)
    with pytest.raises(SimulationError):
        _ = ev.value


def test_succeed_carries_value(env):
    ev = Event(env)
    ev.succeed("payload")
    env.run()
    assert ev.value == "payload"


def test_try_succeed_idempotent(env):
    ev = Event(env)
    assert ev.try_succeed(1) is True
    assert ev.try_succeed(2) is False
    env.run()
    assert ev.value == 1


def test_callback_after_fire_runs_immediately(env):
    ev = Event(env)
    ev.succeed(7)
    env.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    assert got == [7]


def test_timeout_event_fires_with_value(env):
    ev = Event(env).succeed("x", 5)
    env.run()
    assert env.now == 5 and ev.value == "x"


def test_anyof_fires_on_first_child(env):
    slow = Event(env).succeed("slow", 100)
    fast = Event(env).succeed("fast", 3)
    any_ev = AnyOf(env, [slow, fast])
    env.run(until=50)
    assert any_ev.value == (1, "fast")


def test_anyof_ignores_later_children(env):
    a = Event(env).succeed("a", 1)
    b = Event(env).succeed("b", 2)
    any_ev = AnyOf(env, [a, b])
    env.run()
    assert any_ev.value == (0, "a")
    assert b.value == "b"  # loser still fires harmlessly


def test_anyof_empty_raises(env):
    with pytest.raises(SimulationError):
        AnyOf(env, [])


def test_anyof_with_already_fired_child(env):
    ev = Event(env)
    ev.succeed("done")
    env.run()
    any_ev = AnyOf(env, [ev, env.timeout(10)])
    env.run(until=5)
    assert any_ev.value == (0, "done")

