"""Unit tests for the memory-hierarchy timing composition."""

import pytest

from repro.gpu.config import GPUConfig
from repro.mem.atomics import AtomicOp
from repro.mem.backing import BackingStore
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.engine import Engine


@pytest.fixture
def hier():
    env = Engine()
    cfg = GPUConfig()
    store = BackingStore()
    h = MemoryHierarchy(env, cfg, store)
    h._env = env
    h._addr = store.alloc(4, align=64)
    return h


def _run(hier, ev):
    hier.env.run()
    return ev.value  # raises unless the event fired


def test_load_returns_stored_value(hier):
    hier.store.write(hier._addr, 77)
    assert _run(hier, hier.load(0, hier._addr)) == 77


def test_cold_load_slower_than_warm(hier):
    t0 = hier.env.now
    _run(hier, hier.load(0, hier._addr))
    cold = hier.env.now - t0
    t1 = hier.env.now
    _run(hier, hier.load(0, hier._addr))
    warm = hier.env.now - t1
    assert warm < cold
    assert warm == hier.config.l1_latency  # L1 hit


def test_l1s_are_private(hier):
    _run(hier, hier.load(0, hier._addr))
    assert hier.l1s[0].contains(hier._addr)
    assert not hier.l1s[1].contains(hier._addr)


def test_store_reaches_memory(hier):
    _run(hier, hier.store_word(0, hier._addr, 42))
    assert hier.store.read(hier._addr) == 42


def test_atomic_result(hier):
    hier.store.write(hier._addr, 10)
    res = _run(hier, hier.atomic(0, AtomicOp.ADD, hier._addr, 5))
    assert res.old == 10 and res.new == 15
    assert hier.store.read(hier._addr) == 15


def test_atomic_invalidates_issuing_cu_l1(hier):
    _run(hier, hier.load(0, hier._addr))
    assert hier.l1s[0].contains(hier._addr)
    _run(hier, hier.atomic(0, AtomicOp.STORE, hier._addr, 5))
    assert not hier.l1s[0].contains(hier._addr)


def test_no_cross_cu_invalidation(hier):
    """GPUs have no ownership coherence (§IV.C): an atomic from another
    CU does not invalidate this CU's L1 tags (data is still fresh because
    the model is single-copy)."""
    _run(hier, hier.load(0, hier._addr))
    _run(hier, hier.atomic(1, AtomicOp.STORE, hier._addr, 5))
    assert hier.l1s[0].contains(hier._addr)
    assert _run(hier, hier.load(0, hier._addr)) == 5


def test_atomics_serialize_at_one_bank(hier):
    """N same-address atomics take ~N * service, not ~service."""
    events = [hier.atomic(0, AtomicOp.ADD, hier._addr, 1) for _ in range(8)]
    hier.env.run()
    assert [e.value.old for e in events] == list(range(8))
    assert hier.env.now >= 8 * hier.config.l2_atomic_service
    assert hier.store.read(hier._addr) == 8


def test_atomics_to_different_banks_overlap():
    def elapsed(same_bank: bool) -> int:
        env = Engine()
        h = MemoryHierarchy(env, GPUConfig(), BackingStore())
        a = h.store.alloc(4, align=64)
        b = a if same_bank else h.store.alloc(4, align=64)
        # warm the L2 lines so both runs compare pure bank occupancy
        h.atomic(0, AtomicOp.LOAD, a)
        h.atomic(0, AtomicOp.LOAD, b)
        env.run()
        start = env.now
        h.atomic(0, AtomicOp.ADD, a, 1)
        h.atomic(0, AtomicOp.ADD, b, 1)
        env.run()
        return env.now - start

    assert elapsed(same_bank=False) < elapsed(same_bank=True)


def test_atomic_fifo_execution_order(hier):
    """Contended atomics execute in bank-FIFO order (the l2_hook runs at
    execution time); responses may complete out of order (miss vs hit)."""
    executed = []
    delivered = []
    for _ in range(4):
        ev = hier.atomic(
            0, AtomicOp.ADD, hier._addr, 1,
            l2_hook=lambda res: executed.append(res.old),
        )
        ev.add_callback(lambda e: delivered.append(e.value.old))
    hier.env.run()
    assert executed == [0, 1, 2, 3]
    assert sorted(delivered) == [0, 1, 2, 3]
    assert hier.store.read(hier._addr) == 4


def test_l2_hook_runs_at_l2_time(hier):
    seen = {}

    def hook(res):
        seen["old"] = res.old
        seen["at"] = hier.env.now

    ev = hier.atomic(0, AtomicOp.LOAD, hier._addr, l2_hook=hook)
    hier.env.run()
    assert "old" in seen
    # the hook ran strictly before the response reached the CU
    assert seen["at"] < hier.env.now
    assert ev.value.old == seen["old"]


def test_atomic_observer_called(hier):
    calls = []
    hier.atomic_observer = lambda res, wg: calls.append((res.op, wg))
    _run(hier, hier.atomic(0, AtomicOp.ADD, hier._addr, 1, wg_id=3))
    assert calls == [(AtomicOp.ADD, 3)]


def test_observer_sees_plain_stores(hier):
    calls = []
    hier.atomic_observer = lambda res, wg: calls.append(res.new)
    _run(hier, hier.store_word(0, hier._addr, 11))
    assert calls == [11]


def test_service_override(hier):
    ev = hier.atomic(0, AtomicOp.LOAD, hier._addr,
                     service=hier.config.l2_load_service)
    hier.env.run()
    # cheaper than a default atomic: no 48-cycle RMW occupancy
    assert hier.env.now < hier.config.l2_atomic_service + \
        hier.config.l2_latency + hier.config.dram_latency + 10
    assert ev.value.op is AtomicOp.LOAD


def test_bulk_transfer_scales_with_bytes(hier):
    t0 = hier.env.now
    _run(hier, hier.bulk_transfer(64 * 10))
    small = hier.env.now - t0
    t1 = hier.env.now
    _run(hier, hier.bulk_transfer(64 * 100))
    large = hier.env.now - t1
    assert large > small


def test_counters(hier):
    # a cold load, a store and an atomic each reach the L2 exactly once
    assert _run(hier, hier.load(0, hier._addr)) == 0
    assert _run(hier, hier.store_word(0, hier._addr, 1)) is None
    assert _run(hier, hier.atomic(0, AtomicOp.ADD, hier._addr, 1)).new == 2
    assert hier.l2.stats.accesses == 3
