"""The durable-write discipline shared by every persistent writer.

The result cache, repro bundles and the faults shrink log land their
files through :func:`write_atomic_text`: the whole payload into a temp
file (looping over short writes), fsync, then rename onto the final
path, so a reader or a crash never sees a torn file. Transient faults
(EINTR, EIO) are retried ``IO_RETRIES`` times with doubling backoff
from ``IO_BACKOFF`` seconds; ENOSPC is not (a full disk stays full).
The temp file is removed on every failure path.
"""

from __future__ import annotations

import errno
import os
import time
from pathlib import Path

#: retries of a transient (EINTR/EIO) fault in :func:`write_atomic_text`
IO_RETRIES = 3

#: first retry backoff in seconds; doubles per attempt
IO_BACKOFF = 0.01


def write_atomic_text(path: os.PathLike, text: str) -> None:
    """Atomically replace ``path`` with ``text``: temp file + full write
    + fsync + rename, with bounded retry/backoff on EINTR and EIO and
    the temp file cleaned up on *every* failure path.

    Raises the last ``OSError`` once retries are exhausted (at once for
    any other errno); callers own the degradation policy (drop the
    cache put, ...)."""
    path = Path(path)
    data = text.encode()
    # the pid suffix keeps concurrent writers of one target from
    # colliding on the temp file
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    attempt = 0
    while True:
        try:
            _write_atomic_once(tmp, path, data)
            return
        except OSError as exc:
            _cleanup_tmp(tmp)
            # ENOSPC is not transient: the caller's degradation
            # policy takes over at once
            if (exc.errno not in (errno.EINTR, errno.EIO)
                    or attempt >= IO_RETRIES):
                raise
            attempt += 1
            time.sleep(IO_BACKOFF * (2 ** (attempt - 1)))
        except BaseException:
            _cleanup_tmp(tmp)
            raise


def _write_atomic_once(tmp: Path, path: Path, data: bytes) -> None:
    fd = os.open(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o644)
    try:
        offset = 0
        while offset < len(data):
            offset += os.write(fd, data[offset:])
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)


def _cleanup_tmp(tmp: Path) -> None:
    """Best-effort temp removal: cleanup must never mask the real
    failure (the next attempt re-creates the same name with O_TRUNC
    anyway)."""
    try:
        os.unlink(tmp)
    except OSError:
        pass
