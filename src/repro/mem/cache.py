"""A set-associative cache tag model.

This is a *tag/latency* model, not a data model: data always lives in the
:class:`~repro.mem.backing.BackingStore` (the simulator is functionally a
single-copy memory, which matches GPU write-through L1s with atomics
performed at the L2). The cache tracks which lines are present so hits and
misses are charged the right latency, and — for the L2 — carries the AWG
per-tag *monitored* bit and line pinning so monitored synchronization
variables are never evicted (paper §V.B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ConfigError


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class _Line:
    """One tag-array entry. A plain slotted class, not a dataclass: lines
    are allocated per miss on the per-access hot path, and identity
    comparison is correct (tags are unique within a set)."""

    __slots__ = ("tag", "last_use", "pinned", "monitored")

    def __init__(self, tag: int, last_use: int = 0) -> None:
        self.tag = tag
        self.last_use = last_use
        self.pinned = False
        self.monitored = False


class Cache:
    """Set-associative cache with true-LRU replacement and pinning."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        block_bytes: int = 64,
        hit_latency: int = 1,
    ) -> None:
        if size_bytes % (assoc * block_bytes) != 0:
            raise ConfigError(
                f"{name}: size {size_bytes} not divisible by assoc*block "
                f"({assoc}*{block_bytes})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_bytes = block_bytes
        self.hit_latency = hit_latency
        self.num_sets = size_bytes // (assoc * block_bytes)
        self._sets: List[List[_Line]] = [[] for _ in range(self.num_sets)]
        #: per-set tag -> line lookup; the lists above keep insertion
        #: order for LRU victim selection, the maps make probes O(1)
        self._maps: List[Dict[int, _Line]] = [{} for _ in range(self.num_sets)]
        self._tick = 0
        self.stats = CacheStats()

    # -- address mapping -------------------------------------------------
    def block_addr(self, addr: int) -> int:
        return addr - (addr % self.block_bytes)

    def set_index(self, addr: int) -> int:
        return (addr // self.block_bytes) % self.num_sets

    def _find(self, addr: int) -> Optional[_Line]:
        block = self.block_bytes
        tag = addr - (addr % block)
        return self._maps[(addr // block) % self.num_sets].get(tag)

    # -- access ----------------------------------------------------------
    def access(self, addr: int) -> bool:
        """Probe the cache; returns True on hit. A miss allocates the line."""
        self._tick += 1
        line = self._find(addr)
        if line is not None:
            line.last_use = self._tick
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._insert(addr)
        return False

    def contains(self, addr: int) -> bool:
        return self._find(addr) is not None

    def _insert(self, addr: int) -> _Line:
        idx = self.set_index(addr)
        ways = self._sets[idx]
        line = _Line(tag=self.block_addr(addr), last_use=self._tick)
        if len(ways) >= self.assoc:
            victims = [w for w in ways if not w.pinned]
            if not victims:
                # Every way pinned: cannot allocate; caller sees a miss
                # that bypasses the cache.
                return line
            victim = min(victims, key=lambda w: w.last_use)
            ways.remove(victim)
            del self._maps[idx][victim.tag]
            self.stats.evictions += 1
        ways.append(line)
        self._maps[idx][line.tag] = line
        return line

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` if present (and not pinned)."""
        idx = self.set_index(addr)
        line = self._find(addr)
        if line is None or line.pinned:
            return False
        self._sets[idx].remove(line)
        del self._maps[idx][line.tag]
        return True

    # -- AWG tag extension -------------------------------------------------
    def set_monitored(self, addr: int, monitored: bool) -> None:
        """Set/clear the per-tag monitored bit; monitored lines are pinned.

        If the line is absent it is allocated first (a waiting atomic that
        misses installs the line as part of performing the atomic at L2).
        """
        line = self._find(addr)
        if line is None:
            line = self._insert(addr)
            # _insert may have failed under full pinning; track anyway via
            # a detached line (the SyncMon itself still holds the condition).
            if line not in self._sets[self.set_index(addr)]:
                return
        line.monitored = monitored
        line.pinned = monitored

    def is_monitored(self, addr: int) -> bool:
        line = self._find(addr)
        return bool(line and line.monitored)

    def monitored_overhead_bits(self) -> int:
        """One monitored bit per tag across the whole cache (paper: ~1 KB)."""
        return self.num_sets * self.assoc
