"""Dropped-put + temp-hygiene tests for the result cache.

The regression this file pins down: ``ResultCache.put`` must never
leave a stray temp file behind — not when serialization raises, not
when the disk injects EIO, not when it fills up — and a put the disk
refuses is dropped instead of killing the sweep.
"""

import dataclasses
import errno

import pytest

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
    disk.faults["write"] = [errno.EIO]
    with pytest.warns(RuntimeWarning, match="entry dropped"):
        cache.put(key, _result())
    assert disk.count("write") == 1  # one attempt, then dropped
    assert cache.dropped == 1
    assert cache.stores == 0
    assert _strays(tmp_path) == []
    assert cache.get(key) is None


def test_put_on_a_full_disk_is_dropped_and_gets_still_serve(tmp_path, disk):
    cache = ResultCache(tmp_path, fingerprint="t")
    key_ok = cache.key_for({"cell": "pre"})
    cache.put(key_ok, _result())  # lands while the disk is healthy
    assert cache.stores == 1

    # the disk fills: the next write raises ENOSPC
    disk.faults["write"] = [errno.ENOSPC]
    key_lost = cache.key_for({"cell": "post"})
    with pytest.warns(RuntimeWarning, match="entry dropped"):
        cache.put(key_lost, _result())
    assert cache.dropped == 1
    assert disk.count("write") == 2  # the healthy put, the dropped one
    assert cache.get(key_lost) is None

    # the cache still serves what it holds, and a put once the disk has
    # room lands again
    got = cache.get(key_ok)
    assert got is not None and got.cycles == _result().cycles
    cache.put(key_lost, _result())
    assert cache.stores == 2
    assert cache.get(key_lost) == _result()
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
