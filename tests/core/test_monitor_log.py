"""Unit tests for the Monitor Log circular buffer."""

import pytest

from repro.core.monitor_log import ENTRY_BYTES, LogEntry, MonitorLog
from repro.mem.backing import BackingStore


def make_log(capacity=4):
    return MonitorLog(BackingStore(), capacity)


def entry(i):
    return LogEntry(addr=0x1000 + i * 64, value=i, wg_id=i)


def test_append_and_drain_fifo():
    log = make_log()
    for i in range(3):
        assert log.append(entry(i))
    drained = log.drain()
    assert drained == [entry(0), entry(1), entry(2)]
    assert log.occupancy == 0


def test_full_log_rejects():
    log = make_log(capacity=2)
    assert log.append(entry(0))
    assert log.append(entry(1))
    assert log.full
    assert not log.append(entry(2))
    assert log.drain() == [entry(0), entry(1)]  # the rejected entry is not kept


def test_wraps_around():
    log = make_log(capacity=3)
    for i in range(3):
        log.append(entry(i))
    assert log.drain(1) == [entry(0)]
    assert log.append(entry(3))  # reuses slot 0
    assert log.drain() == [entry(1), entry(2), entry(3)]


def test_drain_limit():
    log = make_log()
    for i in range(4):
        log.append(entry(i))
    assert len(log.drain(2)) == 2
    assert log.occupancy == 2


def test_drain_empty():
    assert make_log().drain() == []


def test_stats():
    log = make_log(capacity=2)
    accepted = [log.append(entry(i)) for i in range(3)]  # the third rejected
    assert accepted == [True, True, False]
    assert len(log.drain()) == 2
    assert log.peak_occupancy == 2


def test_footprint_and_memory_residence():
    store = BackingStore()
    log = MonitorLog(store, 1024)
    # the buffer is actually allocated in global memory, 1024 entries long
    assert log.base_addr >= 0x1000
    assert store.alloc(4) >= log.base_addr + 1024 * ENTRY_BYTES


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        make_log(capacity=0)
