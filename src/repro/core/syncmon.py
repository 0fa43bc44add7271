"""The Synchronization Monitor (SyncMon), paper §V.A-B.

The SyncMon sits at the L2 cache. It holds a 4-way × 256-set *condition
cache* (1024 waiting conditions), a 512-entry *waiting WG list*, and one
Bloom filter per monitored address for the resume predictor. Each L2 tag
carries a *monitored* bit; monitored lines are pinned.

Fast path (blue in Figure 12): a waiting atomic that fails its comparison
registers (condition, WG) here and the WG stalls; a later atomic that
updates the monitored address is checked against the registered waiting
values and met conditions resume their waiters through the dispatcher.

Slow path (red): when the condition cache set or the waiting WG list is
full, the entry spills to the Monitor Log in global memory and the
Command Processor takes over condition checking. When the log is full the
waiting atomic fails *without* a waiting state — the WG busy-retries
(Mesa semantics) until the CP frees entries.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.conditions import WaitCondition
from repro.core.hashing import UniversalHash, condition_set_index
from repro.core.monitor_log import LogEntry, MonitorLog
from repro.core.policies import (
    ORACLE_STAGGER, NotifyMode, PolicySpec, ResumeMode,
)
from repro.core.predictor import ResumeDecision, ResumePredictor, StallTimePredictor
from repro.mem.atomics import AtomicResult
from repro.sim.rng import RngStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.config import GPUConfig
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.sim.engine import Engine


class RegisterOutcome(enum.Enum):
    REGISTERED = "registered"  # cached in the SyncMon
    SPILLED = "spilled"  # written to the Monitor Log
    LOG_FULL = "log_full"  # nowhere to store: WG must busy-retry


#: dispatcher hook: (wg_ids, cause, stagger_cycles) -> None
ResumeHook = Callable[[List[int], str, int], None]

#: fault-injection filter over outgoing notifies: returns the subset of
#: wg_ids delivered now (see :mod:`repro.faults.injector`)
NotifyFault = Callable[[List[int], str, int], List[int]]


@dataclass
class _ConditionEntry:
    """One condition-cache entry: a condition plus its waiter FIFO."""

    cond: WaitCondition
    #: index of the condition-cache set holding this entry
    set_idx: int
    #: wg_id -> registration cycle (insertion-ordered FIFO)
    waiters: "OrderedDict[int, int]" = field(default_factory=OrderedDict)


class SyncMon:
    """Condition cache + waiting WG list + monitored bits + predictor."""

    def __init__(
        self,
        env: "Engine",
        config: "GPUConfig",
        hierarchy: "MemoryHierarchy",
        log: MonitorLog,
        policy: PolicySpec,
        rng: RngStream,
    ) -> None:
        self.env = env
        self.config = config
        self.hierarchy = hierarchy
        self.log = log
        self.policy = policy
        self._sets: List[List[_ConditionEntry]] = [
            [] for _ in range(config.syncmon_sets)
        ]
        self._set_hash = UniversalHash(config.syncmon_sets, rng.child("cond-sets"))
        self._waiting_list_used = 0
        #: cached condition total (the per-registration peak tracking made
        #: summing 256 sets per call the hottest SyncMon line)
        self._entry_count = 0
        #: live condition entries per monitored address, in set-index
        #: then way order: a monitored write visits only its own address's
        #: entries, in the order a scan over every set and way would
        self._by_addr: Dict[int, List[_ConditionEntry]] = {}
        self.predictor = ResumePredictor(
            config.bloom_filter_count,
            config.bloom_bits,
            config.bloom_hashes,
            rng.child("predictor"),
        )
        self.stall_predictor = StallTimePredictor()
        self.resume_hook: Optional[ResumeHook] = None
        self.notify_fault: Optional[NotifyFault] = None
        #: structured event tracer (set by the GPU; None = tracing off)
        self.tracer = None
        # statistics (Fig 9 / Fig 13 / Table 2 inputs)
        self.registrations = 0
        self.spills = 0
        self.log_full_events = 0
        self.notifications = 0
        self.resumed_wgs = 0
        self.conditions_met = 0
        self.peak_conditions = 0
        self.peak_waiters = 0
        #: cumulative characterization (Table 2 "measured" columns)
        self.seen_addrs: set = set()
        self.seen_conditions: set = set()
        self._waiters_per_met_sum = 0
        self._updates_per_addr: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def _set_index(self, cond: WaitCondition) -> int:
        return condition_set_index(
            cond.addr,
            cond.expected,
            self.config.block_bytes,
            self.config.syncmon_sets,
            self._set_hash,
        )

    def _find(self, cond: WaitCondition) -> Optional[_ConditionEntry]:
        for entry in self._sets[self._set_index(cond)]:
            if entry.cond == cond:
                return entry
        return None

    def _entries_for_addr(self, addr: int) -> List[_ConditionEntry]:
        """A copy: the caller may drop entries while it walks them."""
        return list(self._by_addr.get(addr, ()))

    @property
    def monitored_addrs(self):
        """The addresses with at least one cached condition."""
        return self._by_addr.keys()

    @property
    def condition_count(self) -> int:
        return self._entry_count

    # ------------------------------------------------------------------
    # registration (fast path ❸ / spill path ④)
    # ------------------------------------------------------------------
    def register(self, wg_id: int, cond: WaitCondition) -> RegisterOutcome:
        """Register a waiting (condition, WG) pair.

        Called at the L2 when a waiting atomic fails its comparison, or
        when a wait instruction arrives (MonR/MonRS policies).
        """
        outcome = self._register(wg_id, cond)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("sync", f"register:{outcome.value}",
                           track="syncmon", wg=wg_id, addr=cond.addr,
                           expected=cond.expected)
            tracer.counter("sync", "syncmon.conditions", self.condition_count)
            tracer.counter("sync", "syncmon.waiters", self._waiting_list_used)
        return outcome

    def _register(self, wg_id: int, cond: WaitCondition) -> RegisterOutcome:
        self.registrations += 1
        entry = self._find(cond)
        if entry is not None:
            if wg_id in entry.waiters:
                return RegisterOutcome.REGISTERED
            if self._waiting_list_used >= self.config.waiting_wg_list_size:
                return self._spill(wg_id, cond)
            entry.waiters[wg_id] = self.env.now
            self._waiting_list_used += 1
            self._track_peaks()
            return RegisterOutcome.REGISTERED

        self.seen_addrs.add(cond.addr)
        self.seen_conditions.add((cond.addr, cond.expected))
        set_idx = self._set_index(cond)
        ways = self._sets[set_idx]
        if (
            len(ways) >= self.config.syncmon_assoc
            or self._waiting_list_used >= self.config.waiting_wg_list_size
        ):
            return self._spill(wg_id, cond)
        entry = _ConditionEntry(cond=cond, set_idx=set_idx)
        entry.waiters[wg_id] = self.env.now
        ways.append(entry)
        self._entry_count += 1
        same_addr = self._by_addr.setdefault(cond.addr, [])
        # after every entry of a lower or equal set (a new way is the
        # last of its set)
        pos = len(same_addr)
        while pos and same_addr[pos - 1].set_idx > set_idx:
            pos -= 1
        same_addr.insert(pos, entry)
        self._waiting_list_used += 1
        self.hierarchy.l2.set_monitored(cond.addr, True)
        self._track_peaks()
        return RegisterOutcome.REGISTERED

    def _spill(self, wg_id: int, cond: WaitCondition) -> RegisterOutcome:
        accepted = self.log.append(
            LogEntry(addr=cond.addr, value=cond.expected, wg_id=wg_id)
        )
        if not accepted:
            self.log_full_events += 1
            return RegisterOutcome.LOG_FULL
        self.spills += 1
        if self.tracer is not None:
            self.tracer.counter("cp", "log.occupancy", self.log.occupancy)
        # The spill is a memory write: charge DRAM occupancy (fire and forget).
        self.hierarchy.dram.service(self.config.dram_service)
        return RegisterOutcome.SPILLED

    def withdraw(self, wg_id: int, cond: WaitCondition) -> bool:
        """Remove a waiter that resumed without a notification (timer)."""
        entry = self._find(cond)
        if entry is None or wg_id not in entry.waiters:
            return False
        del entry.waiters[wg_id]
        self._waiting_list_used -= 1
        if not entry.waiters:
            self._drop_entry(entry)
        if self.tracer is not None:
            self.tracer.instant("sync", "withdraw", track="syncmon",
                                wg=wg_id, addr=cond.addr)
        return True

    def _drop_entry(self, entry: _ConditionEntry) -> None:
        ways = self._sets[entry.set_idx]
        addr = entry.cond.addr
        if entry in ways:
            ways.remove(entry)
            self._entry_count -= 1
            same_addr = self._by_addr[addr]
            same_addr.remove(entry)
            if not same_addr:
                del self._by_addr[addr]
        if addr not in self._by_addr:
            self.hierarchy.l2.set_monitored(addr, False)
            self.predictor.release(addr)

    def _track_peaks(self) -> None:
        self.peak_conditions = max(self.peak_conditions, self.condition_count)
        self.peak_waiters = max(self.peak_waiters, self._waiting_list_used)

    # ------------------------------------------------------------------
    # the observer: every atomic at the L2 passes through here (❸ → ❺)
    # ------------------------------------------------------------------
    def on_atomic(self, result: AtomicResult, wg_id: Optional[int]) -> None:
        if self.policy.notify is NotifyMode.NONE:
            return
        addr = result.addr
        if self.policy.notify is NotifyMode.CONDITION and result.wrote:
            # The Bloom filters observe every update flowing through the
            # L2 and are reset only once a condition has been met, all
            # waiters have resumed and the address is unmonitored (§V.A)
            # — so updates that land *before* the first waiter registers
            # (clustered barrier arrivals) still count as unique.
            if self.policy.resume is ResumeMode.PREDICT:
                self.predictor.record_update(addr, result.new)
            if self.hierarchy.l2.is_monitored(addr):
                self._updates_per_addr[addr] = (
                    self._updates_per_addr.get(addr, 0) + 1
                )
        if not self.hierarchy.l2.is_monitored(addr):
            return
        if self.policy.notify is NotifyMode.SPORADIC:
            self._notify_sporadic(addr, accessor=wg_id)
            return
        # Condition-checked mode: only value-changing updates are relevant.
        if not result.wrote:
            return
        for entry in self._entries_for_addr(addr):
            if entry.cond.met_by(result.new):
                self._condition_met(entry)

    def _notify_sporadic(self, addr: int, accessor: Optional[int]) -> None:
        """MonRS-All: any access to a monitored address resumes every
        waiter on that address — no condition check (Mesa hints)."""
        to_resume: List[int] = []
        for entry in self._entries_for_addr(addr):
            for wg_id in list(entry.waiters):
                if wg_id == accessor:
                    continue  # a WG cannot notify itself with its own retry
                del entry.waiters[wg_id]
                self._waiting_list_used -= 1
                to_resume.append(wg_id)
            if not entry.waiters:
                self._drop_entry(entry)
        if to_resume:
            self.notifications += 1
            self._resume(to_resume, cause="sporadic", stagger=0)

    def _condition_met(self, entry: _ConditionEntry) -> None:
        self.conditions_met += 1
        num_waiters = len(entry.waiters)
        self._waiters_per_met_sum += num_waiters
        if num_waiters == 0:
            self._drop_entry(entry)
            return
        resume_mode = self.policy.resume
        stagger = 0
        if resume_mode is ResumeMode.PREDICT:
            decision = self.predictor.predict(entry.cond.addr, num_waiters)
            resume_mode = (
                ResumeMode.ALL if decision is ResumeDecision.ALL else ResumeMode.ONE
            )
            if self.tracer is not None:
                self.tracer.instant(
                    "predict",
                    f"resume:{'all' if resume_mode is ResumeMode.ALL else 'one'}",
                    track="syncmon", addr=entry.cond.addr,
                    waiters=num_waiters,
                )
        elif resume_mode is ResumeMode.ORACLE:
            # MinResume: never resume unnecessarily. A consumed (mutex)
            # condition releases exactly one waiter per met update; a
            # broadcast (barrier) condition releases everyone, spread out
            # so retries do not contend.
            resume_mode = (
                ResumeMode.ONE if entry.cond.exclusive else ResumeMode.ALL
            )
            stagger = ORACLE_STAGGER

        if resume_mode is ResumeMode.ONE:
            wg_id, registered = self._pop_oldest(entry)
            self.stall_predictor.record(self.env.now - registered)
            if entry.waiters and self.policy.timeout_interval:
                # "The rest of the waiters are resumed when a different
                # update to the monitored address meets the condition or
                # after a fixed timeout interval" (§IV.E). Without this,
                # a resume-one (mis)prediction on a monotonic counter
                # strands the remaining waiters: the expected value never
                # recurs.
                self._schedule_straggler_rescue(entry.cond)
            self.notifications += 1
            self._resume([wg_id], cause="condition-met", stagger=stagger)
            return

        # resume ALL waiters of this condition
        wg_ids = list(entry.waiters)
        for wg_id, registered in entry.waiters.items():
            self.stall_predictor.record(self.env.now - registered)
        entry.waiters.clear()
        self._waiting_list_used -= len(wg_ids)
        self._drop_entry(entry)
        self.notifications += 1
        self._resume(wg_ids, cause="condition-met", stagger=stagger)

    def _schedule_straggler_rescue(self, cond: WaitCondition) -> None:
        interval = self.policy.timeout_interval
        if not interval:
            return

        def _rescue() -> None:
            entry = self._find(cond)
            if entry is None or not entry.waiters:
                return
            wg_id, _registered = self._pop_oldest(entry)
            if entry.waiters:
                self._schedule_straggler_rescue(cond)
            self._resume([wg_id], cause="straggler-timeout", stagger=0)

        self.env.call_at(interval, _rescue)

    def _pop_oldest(self, entry: _ConditionEntry) -> Tuple[int, int]:
        """Remove the longest-waiting WG of ``entry`` (dropping the entry
        once it has no waiters left); returns ``(wg_id, registered)``."""
        wg_id, registered = next(iter(entry.waiters.items()))
        del entry.waiters[wg_id]
        self._waiting_list_used -= 1
        if not entry.waiters:
            self._drop_entry(entry)
        return wg_id, registered

    def _resume(self, wg_ids: List[int], cause: str, stagger: int) -> None:
        if self.notify_fault is not None:
            # Fault injection may drop or delay notifies; dropped waiters
            # are recovered only by their backstop/straggler timers.
            wg_ids = self.notify_fault(wg_ids, cause, stagger)
            if not wg_ids:
                return
        self.resumed_wgs += len(wg_ids)
        if self.tracer is not None:
            self.tracer.instant("sync", f"resume:{cause}", track="syncmon",
                                wgs=list(wg_ids))
        if self.resume_hook is not None:
            self.resume_hook(wg_ids, cause, stagger)

    # ------------------------------------------------------------------
    # introspection / reporting
    # ------------------------------------------------------------------
    def hardware_bits(self) -> Dict[str, int]:
        """Bit budget of the structures (paper §V.C: ~3.18 KB + 1.5 KB)."""
        cfg = self.config
        # condition entry: tag (condition hash) + head/tail 9-bit pointers
        entry_bits = 32 + 2 * 9
        cond_cache = cfg.syncmon_conditions * entry_bits
        wg_list = cfg.waiting_wg_list_size * 9
        blooms = cfg.bloom_filter_count * cfg.bloom_bits
        monitored = self.hierarchy.l2.monitored_overhead_bits()
        return {
            "condition_cache_bits": cond_cache,
            "waiting_wg_list_bits": wg_list,
            "bloom_filter_bits": blooms,
            "l2_monitored_bits": monitored,
        }

    def characterization(self) -> Dict[str, float]:
        """Measured Table 2 columns for the finished run."""
        met = max(1, self.conditions_met)
        addrs = max(1, len(self.seen_addrs))
        return {
            "sync_vars": float(len(self.seen_addrs)),
            "conds_per_var": len(self.seen_conditions) / addrs,
            "waiters_per_cond": self._waiters_per_met_sum / met,
            "updates_until_met": sum(self._updates_per_addr.values()) / met,
        }

    def snapshot(self) -> Dict[str, float]:
        return {
            "syncmon.registrations": float(self.registrations),
            "syncmon.spills": float(self.spills),
            "syncmon.log_full": float(self.log_full_events),
            "syncmon.notifications": float(self.notifications),
            "syncmon.resumed_wgs": float(self.resumed_wgs),
            "syncmon.conditions_met": float(self.conditions_met),
            "syncmon.peak_conditions": float(self.peak_conditions),
            "syncmon.peak_waiters": float(self.peak_waiters),
        }
