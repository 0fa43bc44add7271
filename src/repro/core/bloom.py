"""Counting Bloom filters for the AWG resume predictor.

The paper (§V.A/§V.C) adds 512 Bloom filters, each of 24 bits with 6 hash
functions, one per monitored address, to count the number of *unique*
updates observed to the address. The filter itself answers (approximate)
membership of previously seen update values; a side counter tracks the
estimated distinct count. The filter is reset once its condition has been
met, all waiters have resumed, and the address is no longer monitored.
"""

from __future__ import annotations

from typing import List

from repro.core.hashing import UniversalHash, hash_family
from repro.sim.rng import RngStream


class CountingBloomFilter:
    """A small counting Bloom filter tracking distinct inserted values."""

    def __init__(self, bits: int, hashes: int, rng: RngStream) -> None:
        if bits < 1 or hashes < 1:
            raise ValueError("bits and hashes must be positive")
        self.bits = bits
        self.counters: List[int] = [0] * bits
        self.hashers: List[UniversalHash] = hash_family(hashes, bits, rng)
        self.distinct_estimate = 0
        self.insertions = 0

    def _slots(self, value: int) -> List[int]:
        return [h(value & 0xFFFFFFFF) for h in self.hashers]

    def _all_set(self, slots: List[int]) -> bool:
        return all(self.counters[s] > 0 for s in slots)

    def contains(self, value: int) -> bool:
        """Approximate membership (false positives possible, ~2.1%)."""
        return self._all_set(self._slots(value))

    def insert(self, value: int) -> bool:
        """Record one observed update value.

        Returns True if the value looked *new* (bumps the distinct
        estimate). Counters are incremented on every insert — including
        apparent duplicates — so deletion can never create a false
        negative for a value whose insert was a false-positive "hit".
        """
        self.insertions += 1
        slots = self._slots(value)
        novel = not self._all_set(slots)
        for s in slots:
            self.counters[s] += 1
        if novel:
            self.distinct_estimate += 1
        return novel

    def remove(self, value: int) -> None:
        """Counting-filter deletion (used when unwinding a stale update)."""
        slots = self._slots(value)
        if not self._all_set(slots):
            return
        for s in slots:
            if self.counters[s] > 0:
                self.counters[s] -= 1
        self.distinct_estimate = max(0, self.distinct_estimate - 1)

    def reset(self) -> None:
        self.counters = [0] * self.bits
        self.distinct_estimate = 0
