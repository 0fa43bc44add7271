"""Deterministic I/O gateway: interposition, op logs, seeded faults.

All durable-state writers (:mod:`repro.experiments.cache`,
:mod:`repro.recovery.manifest`, :mod:`repro.recovery.bundle`) route
their filesystem mutations through the module-level ``v*`` functions
below — a thin layer over ``open``/``write``/``fsync``/``rename``/
``link``/``unlink``.

Disarmed (the default, and the only state production sweeps ever run
in) every ``v*`` call is one ``is None`` check away from the raw
``os`` call.

Armed (:func:`armed`, a context manager), the gateway:

- **records** every mutation inside its root as an :class:`OpRecord`
  (operation, root-relative path, payload bytes, durability marks) —
  the input to :mod:`repro.durability.crashstates`;
- **injects** faults from a :class:`DurabilityPlan` at
  *content-addressed injection points*: the point name is
  ``"<op>:<relpath>"`` and the decision for its *n*-th occurrence is a
  pure function of ``(plan.seed, point, n)``, so a fault schedule is
  replayable from ``(seed, plan)`` exactly like a
  :class:`repro.faults.plan.FaultPlan`.

Fault families:

``eio`` / ``enospc`` / ``eintr``
    the classic errnos, raised from write/fsync/rename/link paths.
    ``enospc_after`` models a disk that *fills*: from that global
    write-op count on, every write raises ENOSPC (what the result
    cache's read-through degradation exists for).
``short write``
    ``vwrite`` persists only a prefix of the buffer and reports the
    short count — atomic writers loop, journal appends tear.
``fsync that lies``
    ``vfsync`` returns success but the gateway does not mark the data
    durable; the crash-state enumerator may still lose it (firmware
    and NFS close-to-open caching do exactly this).

Graceful degradation helpers shared by the production writers:
:func:`write_atomic_text` retries EINTR/EIO with bounded backoff
(``REPRO_IO_RETRIES`` / ``REPRO_IO_BACKOFF``) and never leaks its temp
file; :func:`append_text` is a single O_APPEND write whose torn tail
is, by protocol, the *reader's* problem. Everything the degradation
layer does is counted under ``durability.*`` stats and (when a tracer
is attached) mirrored as instants in the ``durability`` trace
category.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError

#: schema marker for serialized op logs (EXPERIMENTS.md documents it)
OPLOG_VERSION = 1

#: operations the gateway interposes (and the enumerator understands)
OPS = ("creat", "write", "fsync", "rename", "link", "unlink")


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DurabilityPlan:
    """One I/O fault schedule: per-op probabilities plus the seed every
    injection decision derives from. Serializable (:meth:`spec` /
    :meth:`from_spec`) like a :class:`~repro.faults.plan.FaultPlan`, so
    ``(seed, plan)`` names a campaign exactly."""

    name: str = "custom"
    seed: int = 1
    #: probability a write/rename/link raises EIO (transient media error)
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
    #: probability an fsync reports success without making data durable
    fsync_lie_prob: float = 0.0
    #: probability an fsync raises EIO (the real dirty-page-loss case)
    fsync_eio_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eio_prob", "enospc_prob", "eintr_prob",
                     "short_write_prob", "fsync_lie_prob",
                     "fsync_eio_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if self.enospc_after is not None and self.enospc_after < 0:
            raise ConfigError("enospc_after must be >= 0")

    @property
    def is_noop(self) -> bool:
        return (self.enospc_after is None
                and not any((self.eio_prob, self.enospc_prob,
                             self.eintr_prob, self.short_write_prob,
                             self.fsync_lie_prob, self.fsync_eio_prob)))

    def with_seed(self, seed: int) -> "DurabilityPlan":
        return replace(self, seed=seed)

    def spec(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "DurabilityPlan":
        return cls(**spec)

    def describe(self) -> str:
        parts = [f for f in ("eio_prob", "enospc_prob", "eintr_prob",
                             "short_write_prob", "fsync_lie_prob",
                             "fsync_eio_prob")
                 if getattr(self, f) > 0]
        if self.enospc_after is not None:
            parts.append(f"enospc_after={self.enospc_after}")
        what = "+".join(p.replace("_prob", "") for p in parts) or "no-op"
        return f"{self.name}[{what}] seed={self.seed}"


def _named_durability_plans() -> Dict[str, DurabilityPlan]:
    return {
        # control: recording only, no injected faults
        "calm": DurabilityPlan(name="calm"),
        # transient media errors + interrupts + torn buffers: the retry
        # layer must absorb every one of these without data loss
        "flaky-disk": DurabilityPlan(
            name="flaky-disk", eio_prob=0.15, eintr_prob=0.15,
            short_write_prob=0.15),
        # the disk fills mid-campaign and stays full: the cache must
        # degrade to read-through, the manifest to warn-and-continue
        "full-disk": DurabilityPlan(name="full-disk", enospc_after=12),
        # fsync reports success but persists nothing: rename-before-
        # durable, the classic crash-consistency hole
        "liar-fsync": DurabilityPlan(name="liar-fsync", fsync_lie_prob=1.0),
        # fsync surfaces the dirty-page loss as EIO (post-fsyncgate
        # kernels): the retry layer sees it, bounded retries apply
        "fsync-eio": DurabilityPlan(name="fsync-eio", fsync_eio_prob=0.3),
        # everything at once
        "io-chaos": DurabilityPlan(
            name="io-chaos", eio_prob=0.1, eintr_prob=0.1,
            short_write_prob=0.1, fsync_lie_prob=0.2, fsync_eio_prob=0.05),
    }


def durability_plan_names() -> List[str]:
    return list(_named_durability_plans())


def named_durability_plan(name: str, seed: int = 1) -> DurabilityPlan:
    plans = _named_durability_plans()
    if name not in plans:
        raise ConfigError(
            f"unknown durability plan {name!r}; known: {list(plans)}")
    return plans[name].with_seed(seed)


# ---------------------------------------------------------------------------
# op records
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    """One interposed mutation inside the gateway root.

    ``point`` is the content-addressed injection-point name
    (``"<op>:<relpath>"``); ``occurrence`` its per-point ordinal —
    together with the plan seed they fully determine the injection
    decision recorded in ``fault``. ``durable`` is flipped by the first
    *honest* fsync covering the record; data a lying fsync "covered"
    stays non-durable, which is exactly the crash-state enumerator's
    licence to lose it."""

    index: int
    op: str
    path: str
    #: payload for creat/write (what reached the file, post-injection)
    data: bytes = b""
    #: bytes the caller asked to write (== len(data) unless torn)
    requested: int = 0
    #: O_APPEND stream (journals) vs sequential fresh-file write
    append: bool = False
    #: rename/link destination (root-relative), empty otherwise
    dest: str = ""
    #: covered by an honest fsync (crash-state enumeration keeps it)
    durable: bool = False
    point: str = ""
    occurrence: int = 0
    #: injected fault at this op, if any ("eio", "enospc", "eintr",
    #: "short", "fsync-lie"); the op's visible outcome already
    #: reflects it
    fault: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        out = asdict(self)
        out["data"] = self.data.decode("utf-8", "backslashreplace")
        return out


# ---------------------------------------------------------------------------
# stats + trace plumbing (live whether or not a gateway is armed: the
# production degradation paths count here too)
# ---------------------------------------------------------------------------

_STATS: Dict[str, int] = {}
_TRACER: Optional[Any] = None


def incr_stat(name: str, n: int = 1) -> None:
    """Bump one ``durability.*`` counter (module-wide, like a process
    metric) and mirror it as a trace instant when a tracer with the
    ``durability`` category is attached."""
    _STATS[name] = _STATS.get(name, 0) + n
    if _TRACER is not None:
        try:
            _TRACER.instant("durability", name, track="durability", n=n)
        except Exception:
            pass


def stats_snapshot() -> Dict[str, int]:
    return dict(_STATS)


def reset_stats() -> None:
    _STATS.clear()


def set_tracer(tracer: Optional[Any]) -> None:
    """Attach a :class:`repro.trace.tracer.Tracer` so degradation
    events land in the ``durability`` trace category (None detaches)."""
    global _TRACER
    _TRACER = tracer


# ---------------------------------------------------------------------------
# the gateway
# ---------------------------------------------------------------------------

class _FdInfo:
    __slots__ = ("path", "append")

    def __init__(self, path: str, append: bool):
        self.path = path
        self.append = append


class IOGateway:
    """One armed interposition session over everything under ``root``.

    Paths outside the root pass straight through to ``os`` — arming a
    gateway for a scratch directory can never perturb unrelated I/O in
    the same process."""

    def __init__(self, root: os.PathLike,
                 plan: Optional[DurabilityPlan] = None,
                 record: bool = True):
        self.root = Path(root).resolve()
        self.plan = plan
        self.record = record
        self.log: List[OpRecord] = []
        self._fds: Dict[int, _FdInfo] = {}
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

    def _meta_fault(self, point: str, n: int) -> Optional[str]:
        plan = self.plan
        if plan is None:
            return None
        if plan.eio_prob and self._draw(point, n, "eio") < plan.eio_prob:
            return "eio"
        return None

    def _log_op(self, **kw: Any) -> Optional[OpRecord]:
        if not self.record:
            return None
        record = OpRecord(index=len(self.log), **kw)
        self.log.append(record)
        return record

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
        append = bool(flags & os.O_APPEND)
        creating = bool(flags & os.O_CREAT)
        self._fds[fd] = _FdInfo(rel, append)
        if creating and not append:
            # a fresh sequential file (append targets may pre-exist and
            # are modeled stream-wise by the enumerator)
            self._log_op(op="creat", path=rel,
                         point=f"creat:{rel}",
                         occurrence=self._next_occurrence(f"creat:{rel}"))
        return fd

    def write(self, fd: int, data: bytes) -> int:
        info = self._fds.get(fd)
        if info is None:
            return os.write(fd, data)
        point = f"write:{info.path}"
        n = self._next_occurrence(point)
        self._writes_seen += 1
        fault = self._write_fault(point, n)
        if fault in ("eio", "enospc", "eintr"):
            self._log_op(op="write", path=info.path, data=b"",
                         requested=len(data), append=info.append,
                         point=point, occurrence=n, fault=fault)
            if fault == "eintr":
                incr_stat("durability.injected.eintr")
            else:
                incr_stat(f"durability.injected.{fault}")
            self._raise(fault, point)
        persisted = data
        if fault == "short" and len(data) > 1:
            persisted = data[:max(1, len(data) // 2)]
            incr_stat("durability.injected.short_write")
        written = os.write(fd, persisted)
        persisted = persisted[:written]
        self._log_op(op="write", path=info.path, data=persisted,
                     requested=len(data), append=info.append,
                     point=point, occurrence=n, fault=fault)
        return len(persisted)

    def fsync(self, fd: int) -> None:
        info = self._fds.get(fd)
        if info is None:
            os.fsync(fd)
            return
        point = f"fsync:{info.path}"
        n = self._next_occurrence(point)
        plan = self.plan
        if (plan is not None and plan.fsync_eio_prob
                and self._draw(point, n, "fsync-eio") < plan.fsync_eio_prob):
            self._log_op(op="fsync", path=info.path, point=point,
                         occurrence=n, fault="eio")
            incr_stat("durability.injected.fsync_eio")
            self._raise("eio", point)
        lied = (plan is not None and plan.fsync_lie_prob
                and self._draw(point, n, "fsync-lie") < plan.fsync_lie_prob)
        os.fsync(fd)
        record = self._log_op(op="fsync", path=info.path, point=point,
                              occurrence=n,
                              fault="fsync-lie" if lied else None)
        if lied:
            incr_stat("durability.injected.fsync_lie")
            return
        if record is not None:
            # honest fsync: everything earlier on this path is durable
            for prior in self.log:
                if prior.path == info.path and prior.index < record.index:
                    prior.durable = True
            record.durable = True

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
        fault = self._meta_fault(point, n)
        if fault is not None:
            self._log_op(op="rename", path=rel_src, dest=rel_dst,
                         point=point, occurrence=n, fault=fault)
            incr_stat("durability.injected.eio")
            self._raise(fault, point)
        os.replace(src, dst)
        self._log_op(op="rename", path=rel_src, dest=rel_dst,
                     point=point, occurrence=n)

    def link(self, src: os.PathLike, dst: os.PathLike) -> None:
        rel_src, rel_dst = self._relpath(src), self._relpath(dst)
        if rel_src is None or rel_dst is None:
            os.link(src, dst)
            return
        point = f"link:{rel_dst}"
        n = self._next_occurrence(point)
        fault = self._meta_fault(point, n)
        if fault is not None:
            self._log_op(op="link", path=rel_src, dest=rel_dst,
                         point=point, occurrence=n, fault=fault)
            incr_stat("durability.injected.eio")
            self._raise(fault, point)
        os.link(src, dst)  # EEXIST propagates: it IS the protocol
        self._log_op(op="link", path=rel_src, dest=rel_dst,
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

    # -- log export -----------------------------------------------------
    def dump_log(self) -> Dict[str, Any]:
        """JSON-serializable op log (EXPERIMENTS.md schema)."""
        return {
            "version": OPLOG_VERSION,
            "root": str(self.root),
            "plan": self.plan.spec() if self.plan is not None else None,
            "ops": [record.to_json() for record in self.log],
        }

    def fault_schedule(self) -> List[Tuple[str, int, str]]:
        """(point, occurrence, fault) for every injected fault, log
        order — what the campaign hashes to prove bit-reproducibility."""
        return [(r.point, r.occurrence, r.fault)
                for r in self.log if r.fault is not None]


# ---------------------------------------------------------------------------
# module-level interposition surface
# ---------------------------------------------------------------------------

_GATEWAY: Optional[IOGateway] = None


def current_gateway() -> Optional[IOGateway]:
    return _GATEWAY


class armed:
    """Context manager arming ``gateway`` (or a new one) process-wide::

        with vfs.armed(root, plan=named_durability_plan("flaky-disk", 7)) as gw:
            ...   # durable writers under root record + take faults
        # disarmed again; gw.log holds the op log

    Nested arming is rejected — one deterministic schedule at a time.
    """

    def __init__(self, root: os.PathLike = None,
                 plan: Optional[DurabilityPlan] = None,
                 record: bool = True,
                 gateway: Optional[IOGateway] = None):
        if gateway is None:
            if root is None:
                raise ConfigError("armed() needs a root or a gateway")
            gateway = IOGateway(root, plan=plan, record=record)
        self.gateway = gateway

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


def vlink(src: os.PathLike, dst: os.PathLike) -> None:
    if _GATEWAY is None:
        os.link(src, dst)
    else:
        _GATEWAY.link(src, dst)


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
# durable-write disciplines (shared by every production writer)
# ---------------------------------------------------------------------------

def resolve_io_retries(retries: Optional[int] = None) -> int:
    """Bounded retry budget for transient I/O faults: explicit arg,
    else ``REPRO_IO_RETRIES``, else 3."""
    if retries is None:
        env = os.environ.get("REPRO_IO_RETRIES")
        if env:
            try:
                retries = int(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_IO_RETRIES must be an integer, got {env!r}")
        else:
            retries = 3
    return max(0, retries)


def resolve_io_backoff(backoff: Optional[float] = None) -> float:
    """Base retry backoff seconds (doubles per attempt): explicit arg,
    else ``REPRO_IO_BACKOFF``, else 0.01."""
    if backoff is None:
        env = os.environ.get("REPRO_IO_BACKOFF")
        if env:
            try:
                backoff = float(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_IO_BACKOFF must be a number of seconds, "
                    f"got {env!r}")
        else:
            backoff = 0.01
    return max(0.0, backoff)


def _transient(exc: OSError) -> bool:
    """EINTR and EIO are worth retrying; ENOSPC is not — a full disk
    stays full, and the caller's degradation policy takes over."""
    return exc.errno in (errno.EINTR, errno.EIO)


def write_atomic_text(path: os.PathLike, text: str,
                      retries: Optional[int] = None,
                      backoff: Optional[float] = None) -> None:
    """The repo-wide durable-write discipline, through the gateway:
    temp file + full write (looping over short writes) + fsync +
    rename, with bounded retry/backoff on transient faults (EINTR,
    EIO — counted under ``durability.retry.*``) and the temp file
    cleaned up on *every* failure path, including failed cleanup-worthy
    serialization long before this call (serialize first, then write).

    Raises the last ``OSError`` once retries are exhausted; callers
    own the degradation policy (drop the cache put, downgrade the
    manifest flush to a warning, ...)."""
    path = Path(path)
    data = text.encode()
    retries = resolve_io_retries(retries)
    backoff = resolve_io_backoff(backoff)
    # armed: deterministic tmp name, so op logs (and the crash states
    # derived from them) are bit-stable across runs; disarmed: pid
    # suffix keeps concurrent writers of one target from colliding
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


def append_text(path: os.PathLike, text: str, mode: int = 0o644) -> None:
    """One O_APPEND write of ``text``. Deliberately *not* retried as a
    whole: a short write here is a torn journal tail, which the
    journal readers are contractually required to skip — retrying the
    full line after a partial one would duplicate records instead.
    EINTR before any byte landed is retried (nothing was persisted)."""
    data = text.encode()
    fd = vopen(path, os.O_CREAT | os.O_APPEND | os.O_WRONLY, mode)
    try:
        while True:
            try:
                vwrite(fd, data)
                return
            except InterruptedError:
                incr_stat("durability.retry.eintr")
                continue
    finally:
        vclose(fd)


def dump_oplog_jsonl(gateway: IOGateway, path: os.PathLike) -> None:
    """Persist one op log as JSONL (header line + one line per op) —
    what a failing crash-state repro dir carries."""
    doc = gateway.dump_log()
    lines = [json.dumps({"version": doc["version"], "root": doc["root"],
                         "plan": doc["plan"]}, sort_keys=True)]
    lines.extend(json.dumps(op, sort_keys=True) for op in doc["ops"])
    Path(path).write_text("\n".join(lines) + "\n")
