"""Tests for the durable-write discipline (repro.durability), driven
through the ``disk`` fixture's recorded and faulted ``os`` calls."""

import errno
import os

import pytest

from repro.durability import write_atomic_text
from repro.experiments.cache import ResultCache
from tests.durability.conftest import sample_result


def _tmp_files(root):
    """Every leftover temp file under root (the leak detector)."""
    return sorted(p for p in root.rglob(".*.tmp*") if p.is_file())


def _tmp_name(rel):
    """The pid-suffixed dot-temp ``write_atomic_text`` uses for ``rel``."""
    return rel.with_name(f".{rel.name}.{os.getpid()}.tmp").as_posix()


# -- the write protocol -------------------------------------------------

def _atomic_text(root):
    """Returns the final path and whether it holds the whole payload."""
    path = root / "a.json"
    write_atomic_text(path, "payload")
    return path, path.read_text() == "payload"


def _cache_put(root):
    cache = ResultCache(root, fingerprint="t")
    key = cache.key_for({"cell": "a"})
    cache.put(key, sample_result())
    return cache._path(key), cache.get(key) == sample_result()


@pytest.mark.parametrize("writer", [_atomic_text, _cache_put],
                         ids=["write_atomic_text", "ResultCache.put"])
def test_armed_gateway_records_atomic_write_protocol(tmp_path, disk, writer):
    """Every durable writer lands its file the same way: the whole
    payload into a dot-temp file in one write, fsynced, then renamed
    onto the final path — never a write in place."""
    final, whole = writer(tmp_path)
    rel = final.relative_to(tmp_path)
    tmp, dest = _tmp_name(rel), rel.as_posix()
    assert disk.log == [
        ("creat", tmp),
        ("write", tmp),
        ("fsync", tmp),
        ("rename", f"{tmp} -> {dest}"),
    ]
    # one write, and the final file holds the whole payload
    assert whole
    assert _tmp_files(tmp_path) == []


# -- fault families -----------------------------------------------------

def test_short_writes_are_absorbed_by_the_write_loop(tmp_path, disk):
    disk.faults["write"] = ["short"] * 8
    write_atomic_text(tmp_path / "t.json", "0123456789abcdef")
    assert (tmp_path / "t.json").read_text() == "0123456789abcdef"
    # each short write persisted half of what was left: 16 → 8 → 4 →
    # 2 → 1 bytes, so the loop took five writes to land the payload
    assert disk.count("write") == 5
    assert disk.count("rename") == 1


def test_eio_raises_after_one_attempt_without_leaking_tmp(tmp_path, disk):
    disk.faults["write"] = [errno.EIO]
    with pytest.raises(OSError) as exc:
        write_atomic_text(tmp_path / "e.json", "x")
    assert exc.value.errno == errno.EIO
    assert _tmp_files(tmp_path) == []
    assert not (tmp_path / "e.json").exists()
    # one attempt: an EIO from a local disk is a device error
    assert disk.count("creat") == disk.count("write") == 1
    assert disk.count("rename") == 0


def test_enospc_is_never_retried(tmp_path, disk):
    disk.faults["write"] = [errno.ENOSPC]
    with pytest.raises(OSError) as exc:
        write_atomic_text(tmp_path / "n.json", "x")
    assert exc.value.errno == errno.ENOSPC
    assert disk.count("creat") == disk.count("write") == 1
    assert _tmp_files(tmp_path) == []


def test_fsync_eio_raises(tmp_path, disk):
    disk.faults["fsync"] = [errno.EIO]
    with pytest.raises(OSError) as exc:
        write_atomic_text(tmp_path / "g.json", "x")
    assert exc.value.errno == errno.EIO
    assert not (tmp_path / "g.json").exists()
    assert disk.count("fsync") == 1
    assert disk.count("rename") == 0
    assert _tmp_files(tmp_path) == []
