"""AWG's two predictors (§IV.B, §V.A).

1. :class:`ResumePredictor` — decides how many waiters to resume when a
   condition is met. It counts waiting WGs per condition and uses one
   counting Bloom filter per monitored address to count *unique* updates
   to the address. More than one waiter and more than two unique updates
   looks like a barrier: resume all. Multiple waiters but at most two
   unique updates looks like a contended mutex: resume one by one.

2. :class:`StallTimePredictor` — predicts how long to stall a freshly
   waiting WG before paying for a context switch, as the running mean of
   the observed cycles-until-condition-met.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.core.bloom import CountingBloomFilter
from repro.core.hashing import UniversalHash
from repro.sim.rng import RngStream


class ResumeDecision(enum.Enum):
    ALL = "all"
    ONE = "one"


class ResumePredictor:
    """Bloom-filter-based resume-count prediction (one filter / address)."""

    def __init__(
        self,
        filter_count: int,
        bits: int,
        hashes: int,
        rng: RngStream,
    ) -> None:
        self.filter_count = filter_count
        self._bits = bits
        self._hashes = hashes
        self._rng = rng
        #: filters built so far, by index; filter ``i`` is built on first
        #: use from the ``bloom{i}`` child stream, so it is identical to one
        #: built up front
        self.filters: Dict[int, CountingBloomFilter] = {}
        self._index_hash = UniversalHash(filter_count, rng.child("bloom-index"))
        #: distinct-update estimate per live monitored address
        self._live: Dict[int, int] = {}

    def _filter_for(self, addr: int) -> CountingBloomFilter:
        i = self._index_hash(addr)
        filt = self.filters.get(i)
        if filt is None:
            filt = self.filters[i] = CountingBloomFilter(
                self._bits, self._hashes, self._rng.child(f"bloom{i}")
            )
        return filt

    def record_update(self, addr: int, value: int) -> None:
        """Observe one atomic update to a monitored address."""
        filt = self._filter_for(addr)
        if filt.insert(value):
            self._live[addr] = self._live.get(addr, 0) + 1

    def unique_updates(self, addr: int) -> int:
        return self._live.get(addr, 0)

    def predict(self, addr: int, num_waiters: int) -> ResumeDecision:
        """Resume-all vs resume-one decision for a met condition."""
        uniques = self.unique_updates(addr)
        if num_waiters > 1 and uniques > 2:
            return ResumeDecision.ALL
        if num_waiters > 1:
            return ResumeDecision.ONE
        # A single waiter: resuming "all" and "one" coincide.
        return ResumeDecision.ALL

    def live_addrs(self):
        """Monitored addresses with a live unique-update estimate."""
        return self._live.keys()

    def perturb(self, addr: int, value: int) -> None:
        """Fault injection: force a (likely spurious) unique-update
        observation into ``addr``'s Bloom filter, skewing the next
        resume-all/resume-one decision. Mispredictions must cost time
        only — the straggler/backstop timers recover them."""
        self.record_update(addr, value)

    def release(self, addr: int) -> None:
        """Condition met, all waiters resumed, address unmonitored: reset."""
        if addr in self._live:
            del self._live[addr]
        # an unbuilt filter is all zeros already
        filt = self.filters.get(self._index_hash(addr))
        if filt is not None:
            filt.reset()


class StallTimePredictor:
    """Running mean of cycles-until-condition-met (§IV.B).

    The prediction is clamped: too-short predictions would context switch
    latency-sensitive barriers (the failure mode the paper reports for
    TB_LG / LFTBEX_LG in Fig 15), too-long ones defeat oversubscription
    recovery. The cap sits at a few context-switch round-trips — once a
    wait is expected to outlast the cost of a switch, yielding the slot
    is always the right call, and capping also breaks the positive
    feedback where long self-inflicted waits inflate the mean.
    """

    def __init__(
        self,
        initial: int = 2_000,
        min_stall: int = 500,
        max_stall: int = 8_000,
    ) -> None:
        self.count = 0
        self._mean = float(initial)
        self.min_stall = min_stall
        self.max_stall = max_stall

    def record(self, waited_cycles: int) -> None:
        """Record one observed wait duration (registration → met)."""
        self.count += 1
        self._mean += (waited_cycles - self._mean) / self.count

    def predict(self) -> int:
        return int(min(self.max_stall, max(self.min_stall, self._mean)))

    @property
    def mean(self) -> float:
        return self._mean
