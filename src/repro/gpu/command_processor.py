"""Command Processor firmware extensions (paper §V.A-B, Figure 13).

The CP is only involved in the slow path: it performs WG context
save/restore, periodically drains the Monitor Log into a lookup-efficient
in-memory table, polls the spilled waiting conditions, and tracks the
status of every waiting WG. It is deliberately off the critical path —
in the common (non-oversubscribed, SyncMon-resident) case it does no
work at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set, Tuple

from repro.gpu.context import ContextArena
from repro.sim.resources import FifoResource

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu import GPU
    from repro.gpu.workgroup import WorkGroup

#: bytes per CP table entry, for the Figure 13 size accounting
CONDITION_ENTRY_BYTES = 12  # address (8) + waiting value (4)
MONITORED_ADDR_BYTES = 8
WAITING_WG_BYTES = 16  # id + status + saved-context pointer
MONITOR_TABLE_BYTES = 16  # mirrors Monitor Log entries


class CommandProcessor:
    """Firmware model: context switching + spilled-condition checking."""

    def __init__(self, gpu: "GPU") -> None:
        self.gpu = gpu
        self.resource = FifoResource(gpu.env, "cp")
        self.arena = ContextArena()
        #: spilled conditions: (addr, expected) -> waiting WG ids
        self.spilled: Dict[Tuple[int, int], Set[int]] = {}
        self._waiting_wgs: Set[int] = set()
        # Figure 13 peak trackers
        self.peak_spilled_conditions = 0
        self.peak_waiting_wgs = 0
        self.peak_monitored_addrs = 0
        self.spilled_resumes = 0
        self._tick_scheduled = False
        self._schedule_tick()

    # ------------------------------------------------------------------
    # context switching (❼/⑧ in Figure 12)
    # ------------------------------------------------------------------
    def save_context(self, wg: "WorkGroup"):
        """Generator: stream the WG context out to global memory.

        The CP charges a fixed overhead per direction; the bytes go
        through :meth:`~repro.mem.hierarchy.MemoryHierarchy.bulk_transfer`,
        so they contend with other DRAM traffic."""
        nbytes = wg.context_bytes()
        yield self.resource.service(self.gpu.config.context_switch_overhead)
        yield self.gpu.hierarchy.bulk_transfer(nbytes)
        self.arena.save(wg.wg_id, nbytes)
        self.gpu.stats.counter("cp.context_saves").incr()
        tracer = self.gpu.tracer
        if tracer is not None:
            tracer.instant("cp", "ctx-save", track="cp",
                           wg=wg.wg_id, bytes=nbytes)

    def restore_context(self, wg: "WorkGroup"):
        """Generator: stream the WG context back in (costed as a save)."""
        nbytes = wg.context_bytes()
        yield self.resource.service(self.gpu.config.context_switch_overhead)
        yield self.gpu.hierarchy.bulk_transfer(nbytes)
        self.arena.restore(wg.wg_id)
        self.gpu.stats.counter("cp.context_restores").incr()
        tracer = self.gpu.tracer
        if tracer is not None:
            tracer.instant("cp", "ctx-restore", track="cp",
                           wg=wg.wg_id, bytes=nbytes)

    # ------------------------------------------------------------------
    # waiting-WG tracking (Figure 13 accounting)
    # ------------------------------------------------------------------
    def note_waiting(self, wg: "WorkGroup") -> None:
        self._waiting_wgs.add(wg.wg_id)
        self.peak_waiting_wgs = max(self.peak_waiting_wgs, len(self._waiting_wgs))
        # distinct monitored addrs = the SyncMon's cached addresses plus
        # spilled-only addrs
        cached = self.gpu.syncmon.monitored_addrs
        n_addrs = len(cached)
        if self.spilled:
            n_addrs += len(
                {addr for (addr, _v) in self.spilled if addr not in cached}
            )
        self.peak_monitored_addrs = max(self.peak_monitored_addrs, n_addrs)
        tracer = self.gpu.tracer
        if tracer is not None:
            tracer.counter("cp", "cp.waiting_wgs", len(self._waiting_wgs))
            tracer.counter("cp", "cp.monitored_addrs", n_addrs)

    def note_not_waiting(self, wg: "WorkGroup") -> None:
        self._waiting_wgs.discard(wg.wg_id)

    # ------------------------------------------------------------------
    # the periodic firmware tick (⑨)
    # ------------------------------------------------------------------
    def _schedule_tick(self) -> None:
        self.gpu.env.call_at(self.gpu.config.cp_check_interval, self._tick)

    def _tick(self) -> None:
        log = self.gpu.monitor_log
        tracer = self.gpu.tracer
        if log.occupancy:
            drained = 0
            for entry in log.drain():
                key = (entry.addr, entry.value)
                self.spilled.setdefault(key, set()).add(entry.wg_id)
                drained += 1
            self.peak_spilled_conditions = max(
                self.peak_spilled_conditions, len(self.spilled)
            )
            if tracer is not None:
                tracer.instant("cp", "log-parse", track="cp",
                               entries=drained)
                tracer.counter("cp", "cp.spilled_conditions",
                               len(self.spilled))
        if self.spilled:
            self.resource.service(self.gpu.config.cp_check_cost)
            self._check_spilled()
        self._schedule_tick()

    def _check_spilled(self) -> None:
        """Poll the current memory value of each spilled condition."""
        store = self.gpu.store
        met = []
        for (addr, expected), wg_ids in self.spilled.items():
            if store.read(addr) == expected:
                met.append((addr, expected, wg_ids))
        tracer = self.gpu.tracer
        for addr, expected, wg_ids in met:
            del self.spilled[(addr, expected)]
            self.spilled_resumes += len(wg_ids)
            if tracer is not None:
                tracer.instant("cp", "spilled-resume", track="cp",
                               addr=addr, wgs=sorted(wg_ids))
            self.gpu.dispatcher.notify_met(
                sorted(wg_ids), cause="cp-spilled", stagger=0
            )

    # ------------------------------------------------------------------
    # Figure 13: CP scheduling data-structure sizes
    # ------------------------------------------------------------------
    def datastructure_bytes(self) -> Dict[str, int]:
        syncmon = self.gpu.syncmon
        conditions = syncmon.peak_conditions + self.peak_spilled_conditions
        return {
            "waiting_conditions": conditions * CONDITION_ENTRY_BYTES,
            "monitored_addresses": self.peak_monitored_addrs * MONITORED_ADDR_BYTES,
            "waiting_wgs": self.peak_waiting_wgs * WAITING_WG_BYTES,
            "monitor_table": self.gpu.monitor_log.peak_occupancy * MONITOR_TABLE_BYTES,
        }
