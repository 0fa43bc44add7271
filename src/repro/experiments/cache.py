"""Content-addressed on-disk cache for experiment cells.

Every (benchmark, policy, scenario, overrides) cell is keyed by a SHA-256
of its canonical JSON spec plus a *code fingerprint* — a hash of every
``.py`` file in the ``repro`` package — so editing any simulator or
experiment source invalidates all cached results, while re-running an
unchanged figure (or a second figure sharing cells with a first) hits
the cache instead of re-simulating.

Layout: ``<root>/<key[:2]>/<key>.json``, one JSON document per cell
holding the :class:`~repro.experiments.runner.RunResult` fields (never
the GPU object). Writes go through a temp file + atomic rename so
concurrent runs never observe a torn entry.

The cache is also how an interrupted sweep resumes: ``run_matrix``
puts every cell as it completes, so re-running a sweep killed
mid-flight re-simulates only the cells that never finished. Every read
re-checks the entry (well-formed, key matches filename, content digest
matches, payload rebuilds a result) and deletes one that fails, so a
resumed sweep never adopts a torn or edited result: that cell simply
re-simulates.

``REPRO_CACHE_DIR`` sets the cache root (default
``$XDG_CACHE_HOME/awg-repro`` or ``~/.cache/awg-repro``). To run
without a cache, pass ``cache=None`` to ``run_matrix`` (``--no-cache``
on the command line).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.durability import write_atomic_text
from repro.experiments.runner import RunResult

#: entry layout is ``<2-hex-char shard>/<key>.json``; the globs must
#: not sweep up foreign files under a shared root
_SHARD_GLOB = "[0-9a-f][0-9a-f]"
_ENTRY_GLOB = f"{_SHARD_GLOB}/*.json"

#: RunResult fields persisted to disk (everything except ``gpu``)
RESULT_FIELDS = (
    "benchmark",
    "policy",
    "scenario",
    "cycles",
    "completed",
    "deadlocked",
    "reason",
    "atomics",
    "waiting_atomics",
    "context_switches",
    "wg_running_cycles",
    "wg_waiting_cycles",
    "stats",
    "diagnosis",
    "trace",
)

_FINGERPRINT: Optional[str] = None


def result_to_payload(result: RunResult) -> Dict[str, Any]:
    """The persisted (JSON-serializable) form of a RunResult — every
    field except the never-picklable GPU handle. Shared by the result
    cache and repro bundles so both stores round-trip results
    identically."""
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def result_from_payload(payload: Dict[str, Any]) -> RunResult:
    """Inverse of :func:`result_to_payload`."""
    return RunResult(**payload)


def payload_digest(body: Dict[str, Any]) -> str:
    """Content hash of a persisted result body, stored alongside it so
    every read can detect torn or bit-rotted entries."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package (cached)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "awg-repro"


def default_cache() -> "ResultCache":
    """The process-wide default cache, at :func:`default_cache_dir`."""
    return ResultCache(default_cache_dir())


class ResultCache:
    """Content-addressed store of :class:`RunResult` records.

    ``hits`` / ``misses`` / ``stores`` count this instance's traffic so
    experiment reports can surface them.
    """

    def __init__(self, root: os.PathLike, fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: corrupted entries deleted and re-simulated (self-heal)
        self.healed = 0
        #: puts dropped by the graceful-degradation policy
        self.dropped = 0
        #: persistent ENOSPC flipped the cache to read-through: gets
        #: still serve, puts are dropped — a full disk must never kill
        #: the sweep that was merely trying to memoize itself
        self.degraded = False

    # -- keys ----------------------------------------------------------
    def key_for(self, spec: Dict[str, Any]) -> str:
        """Stable content hash of a cell spec under the current code."""
        payload = json.dumps(
            {"fingerprint": self.fingerprint, "spec": spec},
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- traffic -------------------------------------------------------
    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (counted as a miss).

        Every read runs :meth:`_check_entry`. An entry that fails it
        (torn write from a killed process, truncated disk, schema drift,
        a payload that no longer matches its digest) self-heals: it is
        deleted and treated as a miss, so the cell re-simulates and
        overwrites it rather than being served."""
        path = self._path(key)
        try:
            result, problem = self._check_entry(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        if problem is not None:
            self.misses += 1
            self.healed += 1
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Persist one result atomically (temp file + fsync + rename), so
        a concurrent reader or a crash mid-write never leaves a torn
        entry behind.

        Concurrent writers of the *same* key (two sweeps sharing the
        cache) need no coordination: each writes its own pid-suffixed
        temp file, entries are content-addressed so their bytes are
        identical, and the last rename wins.

        Failure policy: the cache is an accelerator, not ground truth.
        A put that still fails after the bounded retries of
        :func:`repro.durability.write_atomic_text` is *dropped*
        (warned + counted), and persistent ENOSPC flips the instance to
        read-through ``degraded`` mode. No temp file survives any
        failure path — serialization happens before the first file
        operation, and the atomic writer owns its temp's lifetime."""
        if self.degraded:
            self.dropped += 1
            return
        # serialize before touching the filesystem: a payload that
        # cannot serialize must not cost (or leak) a temp file
        body = result_to_payload(result)
        document = {
            "result": body,
            "key": key,
            "digest": payload_digest(body),
        }
        text = json.dumps(document, sort_keys=True, default=str)
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic_text(path, text)
        except OSError as exc:
            self._degrade_on(exc, key)
            return
        self.stores += 1

    def _degrade_on(self, exc: OSError, key: str) -> None:
        """Apply the put-failure policy: drop the put; persistent
        ENOSPC additionally flips read-through mode."""
        self.dropped += 1
        if exc.errno == errno.ENOSPC:
            self.degraded = True
            warnings.warn(
                f"result cache out of space storing {key[:12]}…; "
                f"degrading to read-through (further puts dropped)",
                RuntimeWarning, stacklevel=3)
        else:
            warnings.warn(
                f"result cache put of {key[:12]}… failed after retries "
                f"({exc}); entry dropped, sweep continues",
                RuntimeWarning, stacklevel=3)

    def _check_entry(
        self, path: Path,
    ) -> Tuple[Optional[RunResult], Optional[str]]:
        """``(result, None)`` when the entry is intact, else
        ``(None, one-line problem)``. A missing file raises
        :class:`FileNotFoundError`."""
        try:
            document = json.loads(path.read_text())
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as exc:
            return None, f"unreadable JSON ({exc})"
        if not isinstance(document, dict) or "result" not in document:
            return None, "no result payload"
        if "digest" not in document or "key" not in document:
            return None, "pre-digest entry (no integrity record)"
        if document["key"] != path.stem:
            return None, (f"embedded key {str(document['key'])[:12]}… "
                          f"does not match filename")
        actual = payload_digest(document["result"])
        if actual != document["digest"]:
            return None, (f"payload digest mismatch (stored "
                          f"{str(document['digest'])[:12]}…, "
                          f"actual {actual[:12]}…)")
        try:
            return result_from_payload(document["result"]), None
        except (TypeError, ValueError) as exc:
            return None, f"payload does not reconstruct a RunResult ({exc})"

    # -- maintenance ---------------------------------------------------
    def entry_count(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob(_ENTRY_GLOB))

    def clear(self) -> int:
        """Delete what the cache wrote under its root: every entry, temp
        residue in the shard directories and each shard directory left
        empty. Anything else under the root survives. Returns how many
        entries were removed."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in self.root.glob(_ENTRY_GLOB):
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # removed by a concurrent clear or heal
            removed += 1
        for tmp in self.root.glob(f"{_SHARD_GLOB}/.*.tmp"):
            tmp.unlink(missing_ok=True)
        for shard in self.root.glob(_SHARD_GLOB):
            try:
                shard.rmdir()
            except OSError:
                pass  # a file, or a shard holding foreign files
        return removed
