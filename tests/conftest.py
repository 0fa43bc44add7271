"""Shared test configuration: hypothesis settings profiles, a
session-wide private result cache, the ``quick_table`` fixture (each
artifact's ``--quick`` table, built once), the ``disk`` fixture for the
durable writers, and :func:`check_golden`, the one way a test compares
against (or, with ``REPRO_UPDATE_GOLDENS=1``, re-baselines) a committed
golden JSON file.

Per-test ``@settings(...)`` used to repeat ``deadline=None`` inline in
every property test; the profiles below centralize it. ``deadline`` is
disabled everywhere because simulation-backed properties have wildly
varying per-example cost (a cold first example JITs dispatch tables,
caches, etc.), which is exactly the flakiness hypothesis deadlines
punish.

The ``ci`` profile additionally derandomizes: CI failures must be
reproducible from the committed code alone, not from a lucky RNG draw.
Select it with ``HYPOTHESIS_PROFILE=ci`` (the workflow does); local
runs keep randomized exploration by default.
"""

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import pytest

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is a baked-in dep
    settings = None

if settings is not None:
    settings.register_profile("default", deadline=None)
    settings.register_profile("ci", deadline=None, derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


#: set to re-baseline every golden the run compares against
UPDATE_GOLDENS = os.environ.get("REPRO_UPDATE_GOLDENS", "") in (
    "1", "true", "yes")

_ABSENT = "<absent>"


def golden_diffs(golden: Any, fresh: Any, where: str = "") -> List[str]:
    """One line per differing leaf between two parsed JSON documents,
    named by its key path (``stats.engine.fired``, ``table.SPM_G.AWG``,
    ``fig14.quick[3].policy.name``). Lists of one length compare item
    by item, others whole."""
    if isinstance(golden, dict) and isinstance(fresh, dict):
        out: List[str] = []
        for key in sorted(set(golden) | set(fresh)):
            out += golden_diffs(golden.get(key, _ABSENT),
                                fresh.get(key, _ABSENT),
                                f"{where}.{key}" if where else key)
        return out
    if (isinstance(golden, list) and isinstance(fresh, list)
            and len(golden) == len(fresh)):
        out = []
        for index, (old, new) in enumerate(zip(golden, fresh)):
            out += golden_diffs(old, new, f"{where}[{index}]")
        return out
    if golden == fresh:
        return []
    return [f"{where or '<root>'}: golden={golden!r} now={fresh!r}"]


def check_golden(path: Path, fresh: Any, indent: int = 2) -> None:
    """Assert ``fresh`` equals the committed golden JSON at ``path``.

    ``fresh`` is compared as it would be written (through a JSON round
    trip), so tuples and lists, or int and str keys, never differ. With
    ``REPRO_UPDATE_GOLDENS=1`` the golden is rewritten instead, sorted
    and at ``indent``, so re-baselining an unchanged golden leaves its
    bytes alone, and each rewrite that changes a value prints the keys
    that changed, old and new (run pytest with ``-s`` to see them)."""
    path = Path(path)
    text = json.dumps(fresh, indent=indent, sort_keys=True) + "\n"
    if UPDATE_GOLDENS:
        if path.is_file():
            diffs = golden_diffs(json.loads(path.read_text()),
                                 json.loads(text))
            if diffs:
                print(f"\nre-baselined {path.name} ({len(diffs)} value(s)):"
                      "\n  " + "\n  ".join(diffs))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.is_file(), (
        f"no golden file {path}; generate it with REPRO_UPDATE_GOLDENS=1")
    diffs = golden_diffs(json.loads(path.read_text()), json.loads(text))
    assert not diffs, (
        f"{path.name} drifted ({len(diffs)} value(s)):\n  "
        + "\n  ".join(diffs[:40])
        + "\nIf intentional, re-baseline with REPRO_UPDATE_GOLDENS=1.")


@pytest.fixture(scope="session", autouse=True)
def _private_result_cache(tmp_path_factory):
    """Point the default result cache at a fresh directory for the whole
    session. Tests that run figures through the default cache must
    neither fill the user's real cache nor be served from it. Set in
    ``os.environ`` so subprocesses the tests start inherit it too."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def quick_table(_private_result_cache):
    """``quick_table(name)``: artifact ``name``'s table as ``awg-repro
    NAME --quick`` builds it (its quick scale, or its committed scale
    where it has none), built once per session through the session's
    result cache."""
    from repro.cli import tabulate

    tables = {}

    def build(name):
        if name not in tables:
            tables[name], _matrix = tabulate(name, quick=True)
        return tables[name]

    return build


class FakeDisk:
    """Records, and on request faults, the ``os`` calls the durable
    writers make on paths under ``root``.

    ``log`` holds one ``(op, path)`` per call, paths relative to the
    root: ``creat``, ``write`` and ``fsync`` name the file, ``rename``
    names ``"src -> dst"``. A faulted call is logged too.
    ``faults[op]`` is a queue each call of that op pops from: an errno
    raises ``OSError`` before the real call; ``"short"`` makes a
    ``write`` persist only the first half of its buffer and report
    that short count."""

    def __init__(self, root: Path, monkeypatch) -> None:
        self.root = Path(root).resolve()
        self.log: List[Tuple[str, str]] = []
        self.faults: Dict[str, List[Union[int, str]]] = {}
        self._fds: Dict[int, str] = {}
        self._real = {name: getattr(os, name)
                      for name in ("open", "write", "fsync", "close",
                                   "replace")}
        for name in self._real:
            monkeypatch.setattr(os, name, getattr(self, f"_{name}"))

    def _rel(self, path) -> Optional[str]:
        try:
            return Path(path).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return None

    def _call(self, op: str, path: str) -> Optional[Union[int, str]]:
        self.log.append((op, path))
        queue = self.faults.get(op)
        fault = queue.pop(0) if queue else None
        if isinstance(fault, int):
            raise OSError(fault, f"injected {os.strerror(fault)} at {op}")
        return fault

    def _open(self, path, flags, mode=0o777, **kw):
        rel = self._rel(path)
        if rel is not None and flags & os.O_CREAT:
            self._call("creat", rel)
        fd = self._real["open"](path, flags, mode, **kw)
        if rel is not None:
            self._fds[fd] = rel
        return fd

    def _write(self, fd, data):
        rel = self._fds.get(fd)
        if rel is not None and self._call("write", rel) == "short":
            data = data[:max(1, len(data) // 2)]
        return self._real["write"](fd, data)

    def _fsync(self, fd):
        rel = self._fds.get(fd)
        if rel is not None:
            self._call("fsync", rel)
        self._real["fsync"](fd)

    def _close(self, fd):
        self._fds.pop(fd, None)
        self._real["close"](fd)

    def _replace(self, src, dst, **kw):
        rel_src, rel_dst = self._rel(src), self._rel(dst)
        if rel_src is not None and rel_dst is not None:
            self._call("rename", f"{rel_src} -> {rel_dst}")
        self._real["replace"](src, dst, **kw)

    def count(self, op: str) -> int:
        return sum(1 for logged, _path in self.log if logged == op)


@pytest.fixture
def disk(tmp_path, monkeypatch) -> FakeDisk:
    """A :class:`FakeDisk` over ``tmp_path``."""
    return FakeDisk(tmp_path, monkeypatch)
