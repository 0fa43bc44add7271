"""Tests for the deterministic I/O gateway (repro.durability.vfs)."""

import errno
import os

import pytest

from repro.durability import vfs
from repro.durability.vfs import (
    DurabilityPlan, IOGateway, armed, write_atomic_text,
)
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from tests.durability.conftest import sample_result


def _tmp_files(root):
    """Every leftover temp file under root (the leak detector)."""
    return sorted(p for p in root.rglob(".*.tmp*") if p.is_file())


# -- plans -------------------------------------------------------------

def test_plan_validation_rejects_bad_probabilities():
    with pytest.raises(ConfigError):
        DurabilityPlan(eio_prob=1.5)
    with pytest.raises(ConfigError):
        DurabilityPlan(enospc_after=-1)


# -- disarmed passthrough ----------------------------------------------

def test_disarmed_vops_are_raw_os(tmp_path):
    assert vfs.current_gateway() is None
    path = tmp_path / "out.txt"
    fd = vfs.vopen(path, os.O_CREAT | os.O_WRONLY)
    vfs.vwrite(fd, b"hello")
    vfs.vfsync(fd)
    vfs.vclose(fd)
    assert path.read_bytes() == b"hello"
    vfs.vrename(path, tmp_path / "moved.txt")
    assert (tmp_path / "moved.txt").exists()
    vfs.vunlink(tmp_path / "moved.txt")
    vfs.vunlink(tmp_path / "moved.txt", missing_ok=True)
    with pytest.raises(FileNotFoundError):
        vfs.vunlink(tmp_path / "moved.txt")


# -- recording ----------------------------------------------------------

def _atomic_text(root):
    path = root / "a.json"
    write_atomic_text(path, "payload")
    return path


def _cache_put(root):
    cache = ResultCache(root, fingerprint="t")
    key = cache.key_for({"cell": "a"})
    cache.put(key, sample_result())
    return cache._path(key)


@pytest.mark.parametrize("writer", [_atomic_text, _cache_put],
                         ids=["write_atomic_text", "ResultCache.put"])
def test_armed_gateway_records_atomic_write_protocol(tmp_path, writer):
    """Every durable writer lands its file the same way: the whole
    payload into a temp file, fsynced, then renamed onto the final
    path — never a write in place."""
    with armed(tmp_path) as gw:
        final = writer(tmp_path)
    rel = final.relative_to(tmp_path)
    tmp, dest = rel.with_name(f".{rel.name}.tmp").as_posix(), rel.as_posix()
    assert [(r.op, r.path, r.dest) for r in gw.log] == [
        ("creat", tmp, ""),
        ("write", tmp, ""),
        ("fsync", tmp, ""),
        ("rename", tmp, dest),
    ]
    assert gw.log[1].data == final.read_bytes()


def test_armed_tmp_names_are_deterministic(tmp_path):
    with armed(tmp_path) as gw:
        write_atomic_text(tmp_path / "x.json", "1")
    assert str(os.getpid()) not in gw.log[0].path


def test_paths_outside_root_are_not_recorded(tmp_path):
    inside = tmp_path / "inside"
    outside = tmp_path / "outside"
    inside.mkdir()
    outside.mkdir()
    with armed(inside) as gw:
        write_atomic_text(outside / "o.json", "untracked")
    assert gw.log == []
    assert (outside / "o.json").read_text() == "untracked"


def test_nested_arming_is_rejected(tmp_path):
    with armed(tmp_path):
        with pytest.raises(ConfigError):
            with armed(tmp_path):
                pass
    # and the first exit disarmed cleanly
    assert vfs.current_gateway() is None


# -- injection determinism ---------------------------------------------

def _fault_workload(root, plan):
    """A fixed workload that tolerates any injected fault."""
    root.mkdir(parents=True, exist_ok=True)
    with armed(root, plan=plan) as gw:
        for i in range(6):
            try:
                write_atomic_text(root / f"f{i}.json", f"payload-{i}" * 4)
            except OSError:
                pass
    return gw


def _fault_schedule(gw):
    """(point, occurrence, fault) for every injected fault, log order."""
    return [(r.point, r.occurrence, r.fault) for r in gw.log if r.fault]


def test_same_seed_same_fault_schedule(tmp_path):
    # pick (deterministically) a seed whose schedule is non-empty, so
    # the equality below is not vacuous
    for seed in range(16):
        plan = DurabilityPlan(name="chaos", seed=seed, eio_prob=0.1,
                              eintr_prob=0.1, short_write_prob=0.1,
                              fsync_eio_prob=0.05)
        a = _fault_workload(tmp_path / f"a{seed}", plan)
        if _fault_schedule(a):
            break
    else:  # pragma: no cover - astronomically unlucky
        pytest.fail("no chaos seed in 0..15 injected anything")
    b = _fault_workload(tmp_path / f"b{seed}", plan)
    assert _fault_schedule(a) == _fault_schedule(b)


def test_draw_is_pure_and_seed_sensitive(tmp_path):
    gw1 = IOGateway(tmp_path, plan=DurabilityPlan(seed=1))
    gw2 = IOGateway(tmp_path, plan=DurabilityPlan(seed=2))
    point = "write:f.json"
    assert gw1._draw(point, 0, "eio") == gw1._draw(point, 0, "eio")
    assert gw1._draw(point, 0, "eio") != gw2._draw(point, 0, "eio")
    assert gw1._draw(point, 0, "eio") != gw1._draw(point, 1, "eio")


# -- fault families -----------------------------------------------------

def test_short_writes_are_absorbed_by_the_write_loop(tmp_path):
    plan = DurabilityPlan(name="torn", seed=1, short_write_prob=1.0)
    with armed(tmp_path, plan=plan) as gw:
        write_atomic_text(tmp_path / "t.json", "0123456789abcdef")
    assert (tmp_path / "t.json").read_text() == "0123456789abcdef"
    shorts = [r for r in gw.log if r.fault == "short"]
    assert shorts
    # a multi-byte short write persists a strict prefix (single-byte
    # writes cannot tear: there is no shorter non-empty prefix)
    assert all(len(r.data) < r.requested
               for r in shorts if r.requested > 1)


def test_eio_exhausts_retries_without_leaking_tmp(tmp_path):
    plan = DurabilityPlan(name="dead-disk", seed=1, eio_prob=1.0)
    vfs.reset_stats()
    with armed(tmp_path, plan=plan):
        with pytest.raises(OSError) as exc:
            write_atomic_text(tmp_path / "e.json", "x", retries=2,
                              backoff=0.0)
    assert exc.value.errno == errno.EIO
    assert _tmp_files(tmp_path) == []
    assert not (tmp_path / "e.json").exists()
    assert vfs.stats_snapshot()["durability.retry.eio"] == 2


def test_transient_eio_retry_succeeds(tmp_path):
    # pick a seed where the first write faults but its retry does not:
    # _draw is pure, so this search is itself deterministic
    point = "write:.r.json.tmp"
    for seed in range(64):
        gw = IOGateway(tmp_path, plan=DurabilityPlan(seed=seed,
                                                     eio_prob=0.5))
        if (gw._draw(point, 0, "eio") < 0.5
                and gw._draw(point, 1, "eio") >= 0.5):
            break
    else:  # pragma: no cover - 2^-64 unlucky
        pytest.fail("no seed with fault-then-success in 64 tries")
    plan = DurabilityPlan(name="flaky", seed=seed, eio_prob=0.5)
    vfs.reset_stats()
    with armed(tmp_path, plan=plan):
        write_atomic_text(tmp_path / "r.json", "recovered", retries=3,
                          backoff=0.0)
    assert (tmp_path / "r.json").read_text() == "recovered"
    assert vfs.stats_snapshot()["durability.retry.eio"] >= 1
    assert _tmp_files(tmp_path) == []


def test_enospc_is_never_retried(tmp_path):
    plan = DurabilityPlan(name="full", seed=1, enospc_after=0)
    vfs.reset_stats()
    with armed(tmp_path, plan=plan):
        # one creat succeeds, then the first actual write hits the
        # full disk; ENOSPC must fail fast, not burn the retry budget
        with pytest.raises(OSError) as exc:
            write_atomic_text(tmp_path / "n.json", "x", retries=3,
                              backoff=0.0)
    assert exc.value.errno == errno.ENOSPC
    assert "durability.retry.eio" not in vfs.stats_snapshot()
    assert _tmp_files(tmp_path) == []


def test_fsync_eio_raises(tmp_path):
    plan = DurabilityPlan(name="fsyncgate", seed=1, fsync_eio_prob=1.0)
    with armed(tmp_path, plan=plan):
        with pytest.raises(OSError) as exc:
            write_atomic_text(tmp_path / "g.json", "x", retries=0)
    assert exc.value.errno == errno.EIO
