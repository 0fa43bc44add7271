"""Unit tests for the backing store and allocator."""

import pytest

from repro.errors import MemoryError_
from repro.mem.backing import BackingStore, wrap32


def test_unwritten_words_read_zero():
    store = BackingStore()
    addr = store.alloc(4)
    assert store.read(addr) == 0


def test_write_read_roundtrip():
    store = BackingStore()
    addr = store.alloc(4)
    store.write(addr, 12345)
    assert store.read(addr) == 12345


def test_negative_values_roundtrip():
    store = BackingStore()
    addr = store.alloc(4)
    store.write(addr, -1)
    assert store.read(addr) == -1


def test_wrap32_semantics():
    assert wrap32(0x7FFFFFFF) == 0x7FFFFFFF
    assert wrap32(0x80000000) == -0x80000000
    assert wrap32(0xFFFFFFFF) == -1
    assert wrap32(0x100000000) == 0
    assert wrap32(-1) == -1


def test_overflow_wraps():
    store = BackingStore()
    addr = store.alloc(4)
    store.write(addr, 0x7FFFFFFF)
    store.write(addr, store.read(addr) + 1)
    assert store.read(addr) == -0x80000000


def test_alloc_respects_alignment():
    store = BackingStore()
    store.alloc(4)
    addr = store.alloc(4, align=64)
    assert addr % 64 == 0


def test_allocations_do_not_overlap():
    store = BackingStore()
    a = store.alloc(16)
    b = store.alloc(16)
    assert b >= a + 16


def test_alloc_array_strided():
    store = BackingStore()
    base = store.alloc(4 * 64, align=64)
    assert base % 64 == 0
    # consecutive elements land on distinct cache lines
    store.write(base, 1)
    store.write(base + 64, 2)
    assert store.read(base) == 1 and store.read(base + 64) == 2


def test_unaligned_access_rejected():
    store = BackingStore()
    addr = store.alloc(8)
    with pytest.raises(MemoryError_):
        store.read(addr + 1)
    with pytest.raises(MemoryError_):
        store.write(addr + 2, 0)


def test_out_of_range_access_rejected():
    store = BackingStore()
    with pytest.raises(MemoryError_):
        store.read(0)  # below base


def test_bad_alloc_sizes_rejected():
    store = BackingStore()
    with pytest.raises(MemoryError_):
        store.alloc(0)
    with pytest.raises(MemoryError_):
        store.alloc(4, align=3)


def test_memory_exhaustion():
    store = BackingStore(size_bytes=128)
    store.alloc(64)
    with pytest.raises(MemoryError_):
        store.alloc(128)


def test_bytes_allocated_tracks():
    store = BackingStore()
    first = store.alloc(100)
    assert store.alloc(4) >= first + 100


def test_words_iterates_touched():
    store = BackingStore()
    a = store.alloc(8)
    store.write(a + 4, 9)
    assert list(store.words()) == [(a + 4, 9)]
