"""Graceful-degradation + temp-hygiene tests for the result cache.

The regression this file pins down: ``ResultCache.put`` must never
leave a stray temp file behind — not when serialization raises, not
when the disk injects EIO, not when it fills up — and a full disk must
flip the cache to read-through instead of killing the sweep.
"""

import dataclasses

import pytest

from repro.durability import vfs
from repro.durability.vfs import DurabilityPlan, armed
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


def test_put_under_injected_eio_drops_and_leaks_nothing(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="t")
    key = cache.key_for({"cell": "a"})
    plan = DurabilityPlan(name="dead-disk", seed=1, eio_prob=1.0)
    with armed(tmp_path, plan=plan):
        with pytest.warns(RuntimeWarning, match="entry dropped"):
            cache.put(key, _result())
    assert cache.dropped == 1
    assert not cache.degraded  # EIO is transient, not a full disk
    assert _strays(tmp_path) == []
    assert cache.get(key) is None


def test_enospc_flips_read_through_degradation(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="t")
    key_ok = cache.key_for({"cell": "pre"})
    cache.put(key_ok, _result())  # lands while the disk is healthy
    assert cache.stores == 1

    plan = DurabilityPlan(name="full", seed=1, enospc_after=0)
    key_lost = cache.key_for({"cell": "post"})
    with armed(tmp_path, plan=plan):
        with pytest.warns(RuntimeWarning, match="out of space"):
            cache.put(key_lost, _result())
    assert cache.degraded
    assert cache.dropped == 1

    # degraded mode: further puts are dropped WITHOUT touching the
    # filesystem, gets still serve (read-through, the sweep survives)
    cache.put(cache.key_for({"cell": "later"}), _result())
    assert cache.dropped == 2
    got = cache.get(key_ok)
    assert got is not None and got.cycles == _result().cycles
    assert _strays(tmp_path) == []


def test_get_self_heals_torn_entries(tmp_path):
    vfs.reset_stats()
    cache = ResultCache(tmp_path, fingerprint="t")
    key = cache.key_for({"cell": "a"})
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_text('{"torn": ')  # a half-written entry
    assert cache.get(key) is None
    assert cache.healed == 1
    assert not path.exists()
    assert vfs.stats_snapshot().get("durability.cache.healed") == 1
