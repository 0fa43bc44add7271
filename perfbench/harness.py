"""Timed passes over a workload's cell list, and the statistics on them.

A *pass* runs every sweep of a workload once, in order, in this process
at ``jobs=1`` through a fresh, empty :class:`ResultCache`, so cache hits
within a pass come only from the pass itself (cross-figure sharing and
in-sweep dedupe). The only wrapper installed in a timed pass is
:class:`CellTimer` around ``RunRequest.execute``, which also runs the
host speed probe (``perfbench/hostspeed.py``) before a cell when one is
due; :func:`scale_passes` then states the pass and cell times at the
reference host speed.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.matrix import Cell, RunRequest, run_matrix

from perfbench.hostspeed import HostSpeed
from perfbench.workloads import Sweeps, cell_id, check_cell

#: tail samples the reported tail percentile must leave beyond it
TAIL_BEYOND = 10


class CellTimer:
    """Records the host seconds and the interval of every
    ``RunRequest.execute`` call (executed cells only: cache hits and
    dedupes never execute). With a :class:`HostSpeed`, probes the host
    before a cell when a probe is due."""

    def __init__(self, speed: Optional[HostSpeed] = None) -> None:
        self.samples: List[float] = []
        self.intervals: List[Tuple[float, float]] = []
        self.speed = speed
        self._original = None

    def __enter__(self) -> "CellTimer":
        original = self._original = RunRequest.execute
        samples, intervals, speed = self.samples, self.intervals, self.speed
        clock = time.perf_counter

        def execute(request):
            if speed is not None:
                speed.probe_if_due()
            start = clock()
            try:
                return original(request)
            finally:
                end = clock()
                samples.append(end - start)
                intervals.append((start, end))

        RunRequest.execute = execute
        return self

    def __exit__(self, *_exc) -> None:
        RunRequest.execute = self._original


def run_pass(sweeps: Sweeps, tmp_root: Path) -> Tuple[float, List[Cell], ResultCache]:
    """One cold pass: ``(wall seconds, every cell in order, the cache)``."""
    tmp_root.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp_root)
    try:
        cache = ResultCache(cache_dir)
        cells: List[Cell] = []
        start = time.perf_counter()
        for sweep in sweeps:
            cells.extend(run_matrix(sweep, jobs=1, cache=cache,
                                    checkpoint=False).cells)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return wall, cells, cache


def scale_passes(speed: HostSpeed, timer: CellTimer,
                 passes: Sequence[Tuple[float, float, float, int, int]]
                 ) -> Tuple[List[float], List[float]]:
    """Pass walls and cell times at the reference host speed.

    ``passes`` holds ``(start, end, wall, first, stop)`` per pass: its
    interval, its measured wall and the slice of ``timer.samples`` it
    executed. Each cell is scaled by the probes around it; the rest of a
    pass (matrix orchestration, cache) by its cells' mean scale, after
    the time spent probing is taken out of its wall."""
    samples = [raw * speed.scale(start, end)
               for raw, (start, end) in zip(timer.samples, timer.intervals)]
    walls = []
    for start, end, wall, first, stop in passes:
        raw = sum(timer.samples[first:stop])
        factor = sum(samples[first:stop]) / raw if raw else \
            speed.scale(start, end)
        walls.append((wall - speed.probed_seconds(start, end)) * factor)
    return walls, samples


def check_cells(cells: Sequence[Cell], expected: Dict, digest: bool) -> List[str]:
    """One ``"<cell>: <problem>"`` line per failed cell."""
    problems = []
    for cell in cells:
        problem = check_cell(cell, expected, digest)
        if problem is not None:
            problems.append(f"{cell_id(cell.request)}: {problem}")
    return problems


def tail_percentile(count: int) -> int:
    """The highest whole percentile whose nearest-rank value still has at
    least ``TAIL_BEYOND`` samples beyond it."""
    if count <= TAIL_BEYOND:
        raise ValueError(f"{count} samples leave no tail of "
                         f"{TAIL_BEYOND} beyond any percentile")
    return 100 * (count - TAIL_BEYOND) // count


def nearest_rank(values: Sequence[float], percentile: int) -> float:
    ordered = sorted(values)
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1]


def cell_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Median and tail of per-cell host times, in milliseconds."""
    pct = tail_percentile(len(samples))
    return {
        "cell_p50_ms": statistics.median(samples) * 1e3,
        "cell_tail_ms": nearest_rank(samples, pct) * 1e3,
        "tail_percentile": pct,
        "samples": len(samples),
    }
