"""Deterministic I/O gateway: interposition, op logs, seeded faults.

All durable-state writers (:mod:`repro.experiments.cache`,
:mod:`repro.recovery.bundle`, the faults shrink log) route their
filesystem mutations through the module-level ``v*`` functions below —
a thin layer over ``open``/``write``/``fsync``/``rename``/``unlink``.

Disarmed (the default, and the only state production sweeps ever run
in) every ``v*`` call is one ``is None`` check away from the raw
``os`` call.

Armed (:func:`armed`, a context manager), the gateway:

- **records** every mutation inside its root as an :class:`OpRecord`
  (operation, root-relative path, payload bytes), so a test can assert
  a writer's exact protocol (creat → write → fsync → rename);
- **injects** faults from a :class:`DurabilityPlan` at
  *content-addressed injection points*: the point name is
  ``"<op>:<relpath>"`` and the decision for its *n*-th occurrence is a
  pure function of ``(plan.seed, point, n)``, so a fault schedule is
  replayable from ``(seed, plan)``.

Fault families:

``eio`` / ``enospc`` / ``eintr``
    the classic errnos, raised from write/fsync/rename paths.
    ``enospc_after`` models a disk that *fills*: from that global
    write-op count on, every write raises ENOSPC (what the result
    cache's read-through degradation exists for).
``short write``
    ``vwrite`` persists only a prefix of the buffer and reports the
    short count — the atomic writer loops until the buffer is out.
``fsync EIO``
    ``vfsync`` raises EIO, the post-fsyncgate dirty-page-loss case.

:func:`write_atomic_text` is the durable-write discipline every
production writer shares: it retries EINTR/EIO ``IO_RETRIES`` times
with doubling backoff from ``IO_BACKOFF`` seconds and never leaks its
temp file. What the degradation layer does is counted under
``durability.*`` stats (:func:`stats_snapshot`).
"""

from __future__ import annotations

import errno
import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ConfigError

#: retries of a transient (EINTR/EIO) fault in :func:`write_atomic_text`
IO_RETRIES = 3

#: first retry backoff in seconds; doubles per attempt
IO_BACKOFF = 0.01


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DurabilityPlan:
    """One I/O fault schedule: per-op probabilities plus the seed every
    injection decision derives from, so ``(seed, plan)`` names a fault
    schedule exactly."""

    name: str = "custom"
    seed: int = 1
    #: probability a write/rename raises EIO (transient media error)
    eio_prob: float = 0.0
    #: probability a write raises ENOSPC
    enospc_prob: float = 0.0
    #: global write-op count after which *every* write raises ENOSPC
    #: (a disk that filled and stays full); None = never
    enospc_after: Optional[int] = None
    #: probability a write raises EINTR before persisting anything
    eintr_prob: float = 0.0
    #: probability a write persists only a prefix of its buffer
    short_write_prob: float = 0.0
    #: probability an fsync raises EIO (the real dirty-page-loss case)
    fsync_eio_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eio_prob", "enospc_prob", "eintr_prob",
                     "short_write_prob", "fsync_eio_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if self.enospc_after is not None and self.enospc_after < 0:
            raise ConfigError("enospc_after must be >= 0")


# ---------------------------------------------------------------------------
# op records
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    """One interposed mutation inside the gateway root.

    ``point`` is the content-addressed injection-point name
    (``"<op>:<relpath>"``); ``occurrence`` its per-point ordinal —
    together with the plan seed they fully determine the injection
    decision recorded in ``fault``."""

    op: str
    path: str
    #: payload for creat/write (what reached the file, post-injection)
    data: bytes = b""
    #: bytes the caller asked to write (== len(data) unless torn)
    requested: int = 0
    #: rename destination (root-relative), empty otherwise
    dest: str = ""
    point: str = ""
    occurrence: int = 0
    #: injected fault at this op, if any ("eio", "enospc", "eintr",
    #: "short"); the op's visible outcome already reflects it
    fault: Optional[str] = None


# ---------------------------------------------------------------------------
# stats (live whether or not a gateway is armed: the production
# degradation paths count here too)
# ---------------------------------------------------------------------------

_STATS: Dict[str, int] = {}


def incr_stat(name: str, n: int = 1) -> None:
    """Bump one ``durability.*`` counter (module-wide, like a process
    metric)."""
    _STATS[name] = _STATS.get(name, 0) + n


def stats_snapshot() -> Dict[str, int]:
    return dict(_STATS)


def reset_stats() -> None:
    _STATS.clear()


# ---------------------------------------------------------------------------
# the gateway
# ---------------------------------------------------------------------------

class IOGateway:
    """One armed interposition session over everything under ``root``.

    Paths outside the root pass straight through to ``os`` — arming a
    gateway for a scratch directory can never perturb unrelated I/O in
    the same process."""

    def __init__(self, root: os.PathLike,
                 plan: Optional[DurabilityPlan] = None):
        self.root = Path(root).resolve()
        self.plan = plan
        self.log: List[OpRecord] = []
        #: open fd -> root-relative path, for fds opened inside the root
        self._fds: Dict[int, str] = {}
        self._points: Dict[str, int] = {}
        self._writes_seen = 0

    # -- injection decisions -------------------------------------------
    def _relpath(self, path: os.PathLike) -> Optional[str]:
        try:
            return Path(path).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return None

    def _draw(self, point: str, occurrence: int, lane: str) -> float:
        """Uniform in [0, 1), a pure function of (seed, point,
        occurrence, lane) — the replayability contract."""
        seed = self.plan.seed if self.plan is not None else 0
        digest = hashlib.sha256(
            f"{seed}:{point}:{occurrence}:{lane}".encode()).digest()
        return int.from_bytes(digest[:8], "little") / 2.0 ** 64

    def _next_occurrence(self, point: str) -> int:
        n = self._points.get(point, 0)
        self._points[point] = n + 1
        return n

    def _write_fault(self, point: str, n: int) -> Optional[str]:
        plan = self.plan
        if plan is None:
            return None
        if (plan.enospc_after is not None
                and self._writes_seen > plan.enospc_after):
            return "enospc"
        if plan.eintr_prob and self._draw(point, n, "eintr") < plan.eintr_prob:
            return "eintr"
        if plan.enospc_prob and (self._draw(point, n, "enospc")
                                 < plan.enospc_prob):
            return "enospc"
        if plan.eio_prob and self._draw(point, n, "eio") < plan.eio_prob:
            return "eio"
        if plan.short_write_prob and (self._draw(point, n, "short")
                                      < plan.short_write_prob):
            return "short"
        return None

    def _log_op(self, **kw: Any) -> None:
        self.log.append(OpRecord(**kw))

    @staticmethod
    def _raise(fault: str, point: str) -> None:
        code = {"eio": errno.EIO, "enospc": errno.ENOSPC,
                "eintr": errno.EINTR}[fault]
        err = (InterruptedError if fault == "eintr" else OSError)(
            code, f"injected {fault.upper()} at {point}")
        err.errno = code
        raise err

    # -- interposed operations -----------------------------------------
    def open(self, path: os.PathLike, flags: int, mode: int = 0o644) -> int:
        rel = self._relpath(path)
        fd = os.open(path, flags, mode)
        if rel is None:
            return fd
        self._fds[fd] = rel
        if flags & os.O_CREAT:
            point = f"creat:{rel}"
            self._log_op(op="creat", path=rel, point=point,
                         occurrence=self._next_occurrence(point))
        return fd

    def write(self, fd: int, data: bytes) -> int:
        rel = self._fds.get(fd)
        if rel is None:
            return os.write(fd, data)
        point = f"write:{rel}"
        n = self._next_occurrence(point)
        self._writes_seen += 1
        fault = self._write_fault(point, n)
        if fault in ("eio", "enospc", "eintr"):
            self._log_op(op="write", path=rel, requested=len(data),
                         point=point, occurrence=n, fault=fault)
            incr_stat(f"durability.injected.{fault}")
            self._raise(fault, point)
        persisted = data
        if fault == "short" and len(data) > 1:
            persisted = data[:max(1, len(data) // 2)]
            incr_stat("durability.injected.short_write")
        written = os.write(fd, persisted)
        persisted = persisted[:written]
        self._log_op(op="write", path=rel, data=persisted,
                     requested=len(data), point=point, occurrence=n,
                     fault=fault)
        return len(persisted)

    def fsync(self, fd: int) -> None:
        rel = self._fds.get(fd)
        if rel is None:
            os.fsync(fd)
            return
        point = f"fsync:{rel}"
        n = self._next_occurrence(point)
        plan = self.plan
        if (plan is not None and plan.fsync_eio_prob
                and self._draw(point, n, "fsync-eio") < plan.fsync_eio_prob):
            self._log_op(op="fsync", path=rel, point=point, occurrence=n,
                         fault="eio")
            incr_stat("durability.injected.fsync_eio")
            self._raise("eio", point)
        os.fsync(fd)
        self._log_op(op="fsync", path=rel, point=point, occurrence=n)

    def close(self, fd: int) -> None:
        self._fds.pop(fd, None)
        os.close(fd)

    def rename(self, src: os.PathLike, dst: os.PathLike) -> None:
        rel_src, rel_dst = self._relpath(src), self._relpath(dst)
        if rel_src is None or rel_dst is None:
            os.replace(src, dst)
            return
        point = f"rename:{rel_dst}"
        n = self._next_occurrence(point)
        plan = self.plan
        if (plan is not None and plan.eio_prob
                and self._draw(point, n, "eio") < plan.eio_prob):
            self._log_op(op="rename", path=rel_src, dest=rel_dst,
                         point=point, occurrence=n, fault="eio")
            incr_stat("durability.injected.eio")
            self._raise("eio", point)
        os.replace(src, dst)
        self._log_op(op="rename", path=rel_src, dest=rel_dst,
                     point=point, occurrence=n)

    def unlink(self, path: os.PathLike) -> None:
        rel = self._relpath(path)
        if rel is None:
            os.unlink(path)
            return
        point = f"unlink:{rel}"
        n = self._next_occurrence(point)
        os.unlink(path)
        self._log_op(op="unlink", path=rel, point=point, occurrence=n)


# ---------------------------------------------------------------------------
# module-level interposition surface
# ---------------------------------------------------------------------------

_GATEWAY: Optional[IOGateway] = None


def current_gateway() -> Optional[IOGateway]:
    return _GATEWAY


class armed:
    """Context manager arming a new :class:`IOGateway` process-wide::

        with vfs.armed(root, plan=DurabilityPlan(seed=7, eio_prob=0.1)) as gw:
            ...   # durable writers under root record + take faults
        # disarmed again; gw.log holds the op log

    Nested arming is rejected — one deterministic schedule at a time.
    """

    def __init__(self, root: os.PathLike,
                 plan: Optional[DurabilityPlan] = None):
        self.gateway = IOGateway(root, plan=plan)

    def __enter__(self) -> IOGateway:
        global _GATEWAY
        if _GATEWAY is not None:
            raise ConfigError("an IOGateway is already armed")
        _GATEWAY = self.gateway
        return self.gateway

    def __exit__(self, *_exc) -> bool:
        global _GATEWAY
        _GATEWAY = None
        return False


def vopen(path: os.PathLike, flags: int, mode: int = 0o644) -> int:
    if _GATEWAY is None:
        return os.open(path, flags, mode)
    return _GATEWAY.open(path, flags, mode)


def vwrite(fd: int, data: bytes) -> int:
    if _GATEWAY is None:
        return os.write(fd, data)
    return _GATEWAY.write(fd, data)


def vfsync(fd: int) -> None:
    if _GATEWAY is None:
        os.fsync(fd)
    else:
        _GATEWAY.fsync(fd)


def vclose(fd: int) -> None:
    if _GATEWAY is None:
        os.close(fd)
    else:
        _GATEWAY.close(fd)


def vrename(src: os.PathLike, dst: os.PathLike) -> None:
    if _GATEWAY is None:
        os.replace(src, dst)
    else:
        _GATEWAY.rename(src, dst)


def vunlink(path: os.PathLike, missing_ok: bool = False) -> None:
    try:
        if _GATEWAY is None:
            os.unlink(path)
        else:
            _GATEWAY.unlink(path)
    except FileNotFoundError:
        if not missing_ok:
            raise


# ---------------------------------------------------------------------------
# the durable-write discipline (shared by every production writer)
# ---------------------------------------------------------------------------

def _transient(exc: OSError) -> bool:
    """EINTR and EIO are worth retrying; ENOSPC is not — a full disk
    stays full, and the caller's degradation policy takes over."""
    return exc.errno in (errno.EINTR, errno.EIO)


def write_atomic_text(path: os.PathLike, text: str,
                      retries: int = IO_RETRIES,
                      backoff: float = IO_BACKOFF) -> None:
    """The repo-wide durable-write discipline, through the gateway:
    temp file + full write (looping over short writes) + fsync +
    rename, with bounded retry/backoff on transient faults (EINTR,
    EIO — counted under ``durability.retry.*``) and the temp file
    cleaned up on *every* failure path.

    Raises the last ``OSError`` once retries are exhausted; callers
    own the degradation policy (drop the cache put, ...)."""
    path = Path(path)
    data = text.encode()
    # armed: deterministic tmp name, so op logs are bit-stable across
    # runs; disarmed: pid suffix keeps concurrent writers of one target
    # from colliding
    if _GATEWAY is not None:
        tmp = path.with_name(f".{path.name}.tmp")
    else:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    attempt = 0
    while True:
        try:
            _write_atomic_once(tmp, path, data)
            return
        except OSError as exc:
            _cleanup_tmp(tmp)
            if not _transient(exc) or attempt >= retries:
                raise
            attempt += 1
            incr_stat("durability.retry."
                      + ("eintr" if exc.errno == errno.EINTR else "eio"))
            if backoff:
                time.sleep(backoff * (2 ** (attempt - 1)))
        except BaseException:
            _cleanup_tmp(tmp)
            raise


def _write_atomic_once(tmp: Path, path: Path, data: bytes) -> None:
    fd = vopen(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY)
    try:
        offset = 0
        while offset < len(data):
            offset += vwrite(fd, data[offset:])
        vfsync(fd)
    finally:
        vclose(fd)
    vrename(tmp, path)


def _cleanup_tmp(tmp: Path) -> None:
    """Best-effort temp removal: cleanup must never mask the real
    failure (an injected EIO on the unlink itself is swallowed — the
    *next* attempt re-creates the same name with O_TRUNC anyway)."""
    try:
        vunlink(tmp, missing_ok=True)
    except OSError:
        pass
