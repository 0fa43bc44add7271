"""Unit tests for the L2 atomic ALU."""

import pytest

from repro.mem import atomics
from repro.mem.atomics import AtomicOp
from repro.mem.backing import BackingStore


@pytest.fixture
def store():
    s = BackingStore()
    s._addr = s.alloc(4)
    return s


def test_load_returns_value_no_write(store):
    store.write(store._addr, 7)
    res = atomics.execute(store, AtomicOp.LOAD, store._addr)
    assert res.old == 7 and res.new == 7 and not res.wrote


def test_store(store):
    res = atomics.execute(store, AtomicOp.STORE, store._addr, 9)
    assert res.wrote and store.read(store._addr) == 9
    assert res.old == 0


def test_store_same_value_not_a_write(store):
    store.write(store._addr, 5)
    res = atomics.execute(store, AtomicOp.STORE, store._addr, 5)
    assert not res.wrote


def test_add_returns_old(store):
    store.write(store._addr, 10)
    res = atomics.execute(store, AtomicOp.ADD, store._addr, 5)
    assert res.old == 10 and res.new == 15
    assert store.read(store._addr) == 15


def test_sub(store):
    store.write(store._addr, 10)
    res = atomics.execute(store, AtomicOp.SUB, store._addr, 3)
    assert res.new == 7


def test_exch(store):
    store.write(store._addr, 1)
    res = atomics.execute(store, AtomicOp.EXCH, store._addr, 2)
    assert res.old == 1 and store.read(store._addr) == 2


def test_cas_success(store):
    store.write(store._addr, 4)
    res = atomics.execute(store, AtomicOp.CAS, store._addr, 4, 99)
    assert res.old == 4 and res.new == 99 and res.wrote
    assert store.read(store._addr) == 99


def test_cas_failure_leaves_memory(store):
    store.write(store._addr, 4)
    res = atomics.execute(store, AtomicOp.CAS, store._addr, 5, 99)
    assert res.old == 4 and not res.wrote
    assert store.read(store._addr) == 4


def test_max_min(store):
    store.write(store._addr, 5)
    assert atomics.execute(store, AtomicOp.MAX, store._addr, 9).new == 9
    assert atomics.execute(store, AtomicOp.MIN, store._addr, 2).new == 2


def test_or_and(store):
    store.write(store._addr, 0b1010)
    assert atomics.execute(store, AtomicOp.OR, store._addr, 0b0101).new == 0b1111
    assert atomics.execute(store, AtomicOp.AND, store._addr, 0b1100).new == 0b1100


def test_add_wraps_32bit(store):
    store.write(store._addr, 0x7FFFFFFF)
    res = atomics.execute(store, AtomicOp.ADD, store._addr, 1)
    assert res.new == -0x80000000

