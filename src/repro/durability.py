"""The durable-write discipline shared by every persistent writer.

The result cache, repro bundles and the faults shrink log land their
files through :func:`write_atomic_text`: the whole payload into a temp
file (looping over short writes), fsync, then rename onto the final
path, so a reader or a crash never sees a torn file. A write makes one
attempt: Python already retries the calls on EINTR (PEP 475), and any
other ``OSError`` (EIO, ENOSPC) is raised to the caller once the temp
file is removed.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic_text(path: os.PathLike, text: str) -> None:
    """Atomically replace ``path`` with ``text``: temp file + full write
    + fsync + rename. On any failure the temp file is removed and the
    exception propagates; the caller owns the policy (drop the cache
    put, ...)."""
    path = Path(path)
    data = text.encode()
    # the pid suffix keeps concurrent writers of one target from
    # colliding on the temp file
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_TRUNC | os.O_WRONLY, 0o644)
        try:
            offset = 0
            while offset < len(data):
                offset += os.write(fd, data[offset:])
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        # cleanup must never mask the real failure
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
