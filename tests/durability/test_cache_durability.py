"""Graceful-degradation + temp-hygiene tests for the result cache.

The regression this file pins down: ``ResultCache.put`` must never
leave a stray temp file behind — not when serialization raises, not
when the disk injects EIO, not when it fills up — and a full disk must
flip the cache to read-through instead of killing the sweep.
"""

import dataclasses
import errno

import pytest

from repro.durability import IO_RETRIES
from repro.experiments.cache import ResultCache
from tests.durability.conftest import sample_result as _result


def _strays(root):
    """Leftover temp files anywhere under the cache root."""
    if not root.is_dir():
        return []
    return sorted(p for p in root.rglob(".*") if p.is_file())


class _Unserializable:
    """Defeats ``json.dumps(..., default=str)``: str() itself raises."""

    def __str__(self):
        raise ValueError("cannot stringify")


def test_put_with_raising_serialization_leaks_nothing(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="t")
    poisoned = dataclasses.replace(
        _result(), stats={"bad": _Unserializable()})
    with pytest.raises(ValueError):
        cache.put(cache.key_for({"cell": "poison"}), poisoned)
    # serialization happens before the first file operation: the cache
    # root holds no temp, no shard — nothing at all
    assert _strays(tmp_path) == []
    assert cache.entry_count() == 0


def test_put_under_injected_eio_drops_and_leaks_nothing(tmp_path, disk):
    cache = ResultCache(tmp_path, fingerprint="t")
    key = cache.key_for({"cell": "a"})
    disk.faults["write"] = [errno.EIO] * (IO_RETRIES + 1)
    with pytest.warns(RuntimeWarning, match="entry dropped"):
        cache.put(key, _result())
    assert disk.count("write") == IO_RETRIES + 1  # retried, then dropped
    assert cache.dropped == 1
    assert not cache.degraded  # EIO is transient, not a full disk
    assert _strays(tmp_path) == []
    assert cache.get(key) is None


def test_enospc_flips_read_through_degradation(tmp_path, disk):
    cache = ResultCache(tmp_path, fingerprint="t")
    key_ok = cache.key_for({"cell": "pre"})
    cache.put(key_ok, _result())  # lands while the disk is healthy
    assert cache.stores == 1

    # the disk fills: every write from here on raises ENOSPC
    disk.faults["write"] = [errno.ENOSPC] * 8
    key_lost = cache.key_for({"cell": "post"})
    with pytest.warns(RuntimeWarning, match="out of space"):
        cache.put(key_lost, _result())
    assert cache.degraded
    assert cache.dropped == 1

    # degraded mode: further puts are dropped WITHOUT touching the
    # filesystem, gets still serve (read-through, the sweep survives)
    ops = len(disk.log)
    cache.put(cache.key_for({"cell": "later"}), _result())
    assert cache.dropped == 2
    assert len(disk.log) == ops
    got = cache.get(key_ok)
    assert got is not None and got.cycles == _result().cycles
    assert _strays(tmp_path) == []


def test_get_self_heals_torn_entries(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="t")
    key = cache.key_for({"cell": "a"})
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_text('{"torn": ')  # a half-written entry
    assert cache.get(key) is None
    assert cache.healed == 1
    assert not path.exists()
