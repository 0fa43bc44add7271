"""Host speed probes, so host times can be stated at a reference speed.

On a shared 2-vCPU VM the speed this process gets from the host changes
by up to 1.4x within minutes, in phases from under a second to minutes
(other tenants on the same physical core). A raw host time then says as
much about the neighbours as about the program. So the benchmark times a
fixed piece of reference work between cells, and scales each measured
host time by ``REFERENCE_S / (mean probe time around it)``. A change to
the program moves the scaled time exactly as it moves the raw one; a
change in the host's speed moves probe and program alike and cancels.

The reference work is owned by the benchmark and never changes with the
program. It is half a small discrete-event run in the style of the
program's hot loop (generator processes on a heap of slotted events,
interpreter-bound) and half random reads from a table of 50k records
(memory-bound): a host slowdown hits the first harder than the
simulator and the second less hard, and together they track it. On a
quick-scale cell timed back to back with probes for 4-5 minutes, the
spread of 10-second means fell from 0.08-0.13 (raw) to 0.02-0.03
(scaled); either half alone left 0.04-0.06.
"""

from __future__ import annotations

import bisect
import heapq
import random
import time
from typing import Dict, List

#: seconds one :func:`reference_work` takes on the reference host (a
#: 2-vCPU x86 VM in a quiet phase); it only sets the scale
REFERENCE_S = 0.020
#: a probe runs before a cell when the last one ended this long ago
PROBE_EVERY_S = 0.5
#: probes this close to a timed interval count towards its speed
WINDOW_S = 1.0

_TABLE = [(i * 2654435761) & 0xFFFF for i in range(4096)]


class _Event:
    __slots__ = ("when", "seq", "proc")

    def __init__(self, when: int, seq: int, proc) -> None:
        self.when, self.seq, self.proc = when, seq, proc

    def __lt__(self, other: "_Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def _process(pid: int):
    state = pid * 37
    while True:
        state = (state * 1103515245 + 12345) & 0xFFFF
        yield (_TABLE[state & 4095] & 15) + 1


def _events(steps: int) -> int:
    """A fixed discrete-event run: 64 generator processes on a heap."""
    queue = [_Event(0, pid, _process(pid)) for pid in range(64)]
    heapq.heapify(queue)
    seq, memory = len(queue), {}
    for step in range(steps):
        event = heapq.heappop(queue)
        delay = next(event.proc)
        memory[(event.seq & 255, step & 63)] = delay
        seq += 1
        heapq.heappush(queue, _Event(event.when + delay, seq, event.proc))
    return queue[0].when


_RECORDS: Dict[int, list] = {}
_KEYS: List[int] = []


def _lookups(count: int) -> int:
    """``count`` reads from a fixed 50k-record table, in a fixed random order."""
    if not _RECORDS:
        rng = random.Random(1)
        _RECORDS.update((i, [i, str(i)]) for i in range(50_000))
        _KEYS.extend(rng.randrange(50_000) for _ in range(1 << 16))
    total = 0
    for i in range(count):
        total += _RECORDS[_KEYS[i & 0xFFFF]][0]
    return total


def reference_work() -> int:
    """The probe's fixed work: about 10 ms of each half on the
    reference host."""
    return _events(3000) + _lookups(30_000)


class HostSpeed:
    """Probe times, and the scale they give a timed interval."""

    def __init__(self) -> None:
        _lookups(0)  # build the table before anything is timed
        self.starts: List[float] = []
        self.ends: List[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def probe_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def probed_seconds(self, start: float, end: float) -> float:
        """Time spent probing inside ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean probe time near ``[start, end]``:
        every probe within ``WINDOW_S`` of it, or within its own length
        if that is longer, and at least the last one before it and the
        first one after it (when there is one)."""
        margin = max(WINDOW_S, end - start)
        lo = bisect.bisect_right(self.ends, start - margin)
        lo = min(lo, max(0, bisect.bisect_right(self.ends, start) - 1))
        hi = bisect.bisect_left(self.starts, end + margin)
        hi = max(hi, min(len(self.starts), bisect.bisect_left(self.starts, end) + 1))
        if lo >= hi:
            raise ValueError("no host speed probe near the interval")
        times = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        return REFERENCE_S * len(times) / sum(times)
