"""ALICE/CrashMonkey-style crash-state enumeration from an op log.

Given the operation log an armed :class:`repro.durability.vfs.IOGateway`
recorded, enumerate the *legal post-crash disk images* — every
filesystem state a crash at any point could have left behind under a
weak (but journaled-metadata) persistence model — materialize each into
a scratch directory, and let the harness run the production recovery
path against it.

The persistence model (ALICE-lite, documented in EXPERIMENTS.md):

- **Crash points.** A crash may land after any prefix ``ops[:i]`` of
  the log.
- **Data writes are volatile until fsynced.** A write to path ``p``
  becomes durable only once an *honest* fsync of ``p`` executes after
  it (a lying fsync — ``fault == "fsync-lie"`` — covers nothing).
  Un-fsynced writes on a path may be lost at the crash, independently
  per path (this is the cross-path reordering of ALICE): the state
  keeps only a prefix of each path's write sequence, never dropping
  below the last durable write. Losses are always a per-path *suffix*
  — writes within one file are sequential.
- **Torn tails.** The final applied write of a path, if not durable,
  may be torn: only a strict prefix of its bytes persisted.
- **Metadata is journaled in order, except renames may be lost.**
  creat/link/unlink persist with the prefix (ordered metadata
  journal); a rename, the one metadata op our writers use as a commit
  point, may individually fail to reach the journal (``-rename@k``
  states — the NFS / crash-before-journal-commit case). A rename that
  does persist moves whatever content its source holds *in that
  state* — so "rename landed, data didn't" (the classic
  fsync-before-rename hole, reachable here via a lying fsync) yields
  exactly the truncated/torn destination file real filesystems
  produce.

States are deduplicated by content hash of the resulting image
(``state_id == "cs-" + sha256(files)[:10]``), so the enumeration is a
set of distinct disk images, each with the cheapest provenance that
reaches it. Everything is a pure function of the op log: fixed log in,
fixed state list out.

:func:`check_state_legal` re-validates any state against the model —
the hypothesis property suite drives it with generated logs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.durability.vfs import OpRecord

#: ops that change file *content* in the replay model
_DATA_OPS = ("creat", "write", "rename", "link", "unlink")


@dataclass(frozen=True)
class CrashState:
    """One legal post-crash disk image, with provenance.

    ``applied`` lists the op indices that persisted (ascending);
    ``torn`` maps an applied write's index to the byte count that
    survived of it. ``files`` is the resulting image: root-relative
    path → content bytes."""

    state_id: str
    description: str
    crash_point: int
    applied: Tuple[int, ...]
    torn: Tuple[Tuple[int, int], ...]
    files: Tuple[Tuple[str, bytes], ...]

    @property
    def file_dict(self) -> Dict[str, bytes]:
        return dict(self.files)

    def summary(self) -> Dict[str, object]:
        return {
            "state_id": self.state_id,
            "description": self.description,
            "crash_point": self.crash_point,
            "applied": list(self.applied),
            "torn": [list(t) for t in self.torn],
            "files": sorted(p for p, _ in self.files),
        }


# ---------------------------------------------------------------------------
# durability relative to a crash point
# ---------------------------------------------------------------------------

def _durable_cover(log: Sequence[OpRecord]) -> Dict[int, int]:
    """index → index of the earliest *honest* fsync making it durable.

    An honest fsync of path ``p`` at index ``f`` covers every earlier
    op on ``p`` (and itself) except renames: a rename is a directory
    entry change that may miss the metadata journal whatever file is
    fsynced later (the ``-rename@k`` states). Lying fsyncs cover
    nothing — that is the entire point of them."""
    cover: Dict[int, int] = {}
    for record in log:
        if record.op != "fsync" or record.fault is not None:
            continue
        for prior in log:
            if prior.index > record.index:
                break
            if (prior.path == record.path and prior.op != "rename"
                    and prior.index not in cover):
                cover[prior.index] = record.index
    return cover


def _durable_at(cover: Dict[int, int], index: int, crash_point: int) -> bool:
    f = cover.get(index)
    return f is not None and f < crash_point


# ---------------------------------------------------------------------------
# replay: op subset -> disk image
# ---------------------------------------------------------------------------

def _replay(log: Sequence[OpRecord], applied: Sequence[int],
            torn: Dict[int, int]) -> Dict[str, bytes]:
    files: Dict[str, bytes] = {}
    for index in applied:
        op = log[index]
        if op.op == "creat":
            files[op.path] = b""  # O_CREAT|O_TRUNC: fresh or truncated
        elif op.op == "write":
            data = op.data
            if index in torn:
                data = data[:torn[index]]
            files[op.path] = files.get(op.path, b"") + data
        elif op.op == "rename":
            if op.path in files:
                files[op.dest] = files.pop(op.path)
        elif op.op == "link":
            if op.path in files and op.dest not in files:
                files[op.dest] = files[op.path]
        elif op.op == "unlink":
            files.pop(op.path, None)
        # fsync/utime: no content effect
    return files


def _state_id(files: Dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(path.encode())
        digest.update(b"\0")
        digest.update(files[path])
        digest.update(b"\0")
    return "cs-" + digest.hexdigest()[:10]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_crash_states(log: Sequence[OpRecord],
                           max_states: Optional[int] = None,
                           ) -> List[CrashState]:
    """All distinct legal post-crash images of ``log``, cheapest
    provenance first per image, log order across crash points.

    Bounded O(n²) states before dedup: per crash point, the clean
    prefix, torn tails of the final write, one rollback state per path
    with volatile writes, the all-paths sync-loss state, and one
    dropped-rename state per preceding rename. ``max_states`` truncates
    (the harness logs when it does — silent truncation lies)."""
    cover = _durable_cover(log)
    seen: Dict[str, CrashState] = {}
    order: List[CrashState] = []

    def add(crash_point: int, applied: Sequence[int],
            torn: Dict[int, int], desc: str) -> None:
        files = _replay(log, applied, torn)
        sid = _state_id(files)
        if sid in seen:
            return
        state = CrashState(
            state_id=sid, description=desc, crash_point=crash_point,
            applied=tuple(applied),
            torn=tuple(sorted(torn.items())),
            files=tuple(sorted(files.items())))
        seen[sid] = state
        order.append(state)

    n = len(log)
    for i in range(n + 1):
        if max_states is not None and len(order) >= max_states:
            break
        prefix = list(range(i))
        add(i, prefix, {}, f"prefix:{i}")

        # torn tail of the crash-point write (if still volatile)
        if i > 0:
            last = log[i - 1]
            if (last.op == "write" and len(last.data) > 1
                    and not _durable_at(cover, i - 1, i)):
                for keep in sorted({len(last.data) // 2,
                                    len(last.data) - 1}):
                    if 0 < keep < len(last.data):
                        add(i, prefix, {i - 1: keep},
                            f"prefix:{i}+torn@{i - 1}:{keep}")

        # per-path rollback: path p lost its volatile write suffix
        volatile: Dict[str, List[int]] = {}
        for k in prefix:
            if (log[k].op == "write"
                    and not _durable_at(cover, k, i)):
                volatile.setdefault(log[k].path, []).append(k)
        for path in sorted(volatile):
            dropped = set(volatile[path])
            add(i, [k for k in prefix if k not in dropped], {},
                f"prefix:{i}~rollback:{path}")

        # every path lost everything volatile (all dirty pages gone)
        if len(volatile) > 1:
            dropped = {k for ks in volatile.values() for k in ks}
            add(i, [k for k in prefix if k not in dropped], {},
                f"prefix:{i}~syncloss")

        # each rename may individually miss the metadata journal
        for k in prefix:
            if log[k].op == "rename" and log[k].fault is None:
                add(i, [j for j in prefix if j != k], {},
                    f"prefix:{i}-rename@{k}")

    return order


# ---------------------------------------------------------------------------
# legality checking (the hypothesis suite's oracle)
# ---------------------------------------------------------------------------

def check_state_legal(log: Sequence[OpRecord],
                      state: CrashState) -> List[str]:
    """Violations of the persistence model in ``state`` (empty ⇒ legal).

    Rules checked: applied ops lie within the crash point in ascending
    order; durable ops (honest-fsync-covered before the crash) are
    never dropped; only writes and renames may be dropped; dropped
    writes are a volatile per-path suffix; tears hit only the last
    applied write of a path, are never durable, and keep a strict,
    non-empty prefix of the bytes."""
    violations: List[str] = []
    cover = _durable_cover(log)
    i = state.crash_point
    applied = list(state.applied)
    torn = dict(state.torn)

    if applied != sorted(set(applied)):
        violations.append("applied indices not strictly ascending")
    if any(k < 0 or k >= i for k in applied):
        violations.append("applied op beyond the crash point")
    applied_set = set(applied)

    dropped = [k for k in range(i) if k not in applied_set]
    for k in dropped:
        op = log[k]
        if _durable_at(cover, k, i):
            violations.append(f"durable op {k} ({op.op}:{op.path}) dropped")
        if op.op not in ("write", "rename", "fsync", "utime"):
            violations.append(
                f"journaled metadata op {k} ({op.op}:{op.path}) dropped")

    # dropped writes must be a suffix of their path's write sequence
    per_path: Dict[str, List[int]] = {}
    for k in range(i):
        if log[k].op == "write":
            per_path.setdefault(log[k].path, []).append(k)
    for path, writes in per_path.items():
        kept = [k for k in writes if k in applied_set]
        if kept != writes[:len(kept)]:
            violations.append(f"non-suffix write drop on {path}")

    for k, keep in torn.items():
        op = log[k] if 0 <= k < len(log) else None
        if op is None or op.op != "write" or k not in applied_set:
            violations.append(f"torn index {k} is not an applied write")
            continue
        if _durable_at(cover, k, i):
            violations.append(f"torn write {k} was durable (fsync barrier)")
        kept_writes = [j for j in per_path.get(op.path, ())
                       if j in applied_set]
        if not kept_writes or kept_writes[-1] != k:
            violations.append(
                f"torn write {k} is not the last applied write of {op.path}")
        if not 0 < keep < len(op.data):
            violations.append(
                f"torn write {k} keeps {keep} of {len(op.data)} bytes")

    return violations


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def materialize(state: CrashState, dest: Path,
                sidecar: Optional[Path] = None) -> Path:
    """Write the crash image into ``dest`` (created if missing). When
    ``sidecar`` is given, a ``crash-state.json`` describing the state
    is written there too — kept *outside* the image so recovery scans
    over the materialized tree never see a file the workload did not
    write."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    for relpath, content in state.files:
        target = dest / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)
    if sidecar is not None:
        sidecar.parent.mkdir(parents=True, exist_ok=True)
        sidecar.write_text(json.dumps(state.summary(), indent=2,
                                      sort_keys=True) + "\n")
    return dest
