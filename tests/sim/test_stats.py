"""Unit tests for statistics collection."""

import pytest

from repro.sim.stats import Counter, RunningMean, StatRegistry


def test_counter_increments():
    c = Counter("x")
    c.incr()
    c.incr(4)
    assert int(c) == 5
    assert "x=5" in repr(c)


def test_running_mean_statistics():
    rm = RunningMean("lat")
    for v in (2.0, 4.0, 6.0):
        rm.add(v)
    assert rm.mean == pytest.approx(4.0)
    assert rm.count == 3


def test_registry_reuses_instances():
    reg = StatRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.running_mean("c") is reg.running_mean("c")


def test_registry_snapshot_is_flat_and_sorted():
    reg = StatRegistry()
    reg.counter("z").incr(2)
    reg.counter("a").incr(1)
    reg.running_mean("m").add(3.0)
    snap = reg.snapshot()
    assert snap["a"] == 1.0
    assert snap["z"] == 2.0
    assert snap["m.mean"] == 3.0
    assert snap["m.count"] == 1.0
    keys = [k for k in snap if k in ("a", "z")]
    assert keys == ["a", "z"]
