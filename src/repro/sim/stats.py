"""Statistics collection: counters and running means.

Every hardware component registers its statistics in a
:class:`StatRegistry` so experiment harnesses can dump a flat, stable
name → value mapping after a run.
"""

from __future__ import annotations

from typing import Dict


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def incr(self, amount: int = 1) -> None:
        self.value += amount

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class RunningMean:
    """Streaming mean for latency-style samples."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0

    def add(self, sample: float) -> None:
        self.count += 1
        self._mean += (sample - self._mean) / self.count

    @property
    def mean(self) -> float:
        return self._mean


class StatRegistry:
    """Flat registry of named statistics for one simulation run."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._means: Dict[str, RunningMean] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def running_mean(self, name: str) -> RunningMean:
        if name not in self._means:
            self._means[name] = RunningMean(name)
        return self._means[name]

    def snapshot(self) -> Dict[str, float]:
        """Stable flat mapping of every registered statistic."""
        out: Dict[str, float] = {}
        for name, c in sorted(self._counters.items()):
            out[name] = float(c.value)
        for name, m in sorted(self._means.items()):
            out[f"{name}.mean"] = m.mean
            out[f"{name}.count"] = float(m.count)
        return out
