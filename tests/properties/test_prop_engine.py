"""Property-based tests for the simulation engine and resources."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.resources import FifoResource


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
@settings(max_examples=60)
def test_events_fire_in_nondecreasing_time(delays):
    env = Engine()
    fired = []
    for d in delays:
        env.timeout(d).add_callback(lambda e: fired.append(env.now))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(st.lists(st.integers(1, 100), min_size=1, max_size=30),
       st.integers(1, 4))
@settings(max_examples=60)
def test_fifo_resource_conservation(services, slots):
    """Total elapsed time >= total service / slots; all requests served
    in submission order per completion of equal-length groups."""
    env = Engine()
    res = FifoResource(env, "r", slots=slots)
    done = [res.service(s) for s in services]
    env.run()
    assert all(d.value is None for d in done)
    assert env.now >= max(services)
    assert env.now >= sum(services) / slots - 1e-9
    assert env.now <= sum(services)


@given(st.lists(st.integers(1, 50), min_size=2, max_size=20))
@settings(max_examples=40)
def test_single_slot_fifo_completion_order(services):
    env = Engine()
    res = FifoResource(env, "r")
    order = []
    for i, s in enumerate(services):
        res.service(s).add_callback(lambda e, i=i: order.append(i))
    env.run()
    assert order == list(range(len(services)))
    assert env.now == sum(services)


@given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)),
                min_size=1, max_size=25))
@settings(max_examples=40)
def test_nested_scheduling_from_callbacks(pairs):
    """Callbacks that schedule further events preserve clock monotonicity."""
    env = Engine()
    stamps = []

    def outer(ev, extra):
        stamps.append(env.now)
        env.timeout(extra).add_callback(lambda e: stamps.append(env.now))

    for first, extra in pairs:
        env.timeout(first).add_callback(
            lambda e, x=extra: outer(e, x))
    env.run()
    assert stamps == sorted(stamps)
    assert len(stamps) == 2 * len(pairs)
