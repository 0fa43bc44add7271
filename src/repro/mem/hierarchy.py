"""Timing composition of the memory hierarchy.

Per-CU write-through L1s in front of a banked, shared L2 which performs
all atomic operations, backed by a DRAM channel model. All *data* lives in
the single-copy :class:`~repro.mem.backing.BackingStore`; the caches are
tag/latency models (see :mod:`repro.mem.cache`). This matches the GPU
consistency model the paper assumes: write-through L1s, atomics at the
LLC, no ownership coherence.

Atomics are the interesting path: each atomic occupies its L2 bank for a
service time, so contended synchronization variables serialize at one bank
— the effect that makes busy-waiting catastrophic and motivates AWG. After
the ALU executes, the hierarchy hands the result to an optional *atomic
observer* (the SyncMon), which is how waiting conditions are registered
and checked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.mem import atomics as atomic_alu
from repro.mem.atomics import AtomicOp, AtomicResult
from repro.mem.backing import BackingStore
from repro.mem.cache import Cache
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.resources import FifoResource

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.config import GPUConfig

#: Observer invoked at the L2 for every atomic: (result, wg_id) -> None.
AtomicObserver = Callable[[AtomicResult, Optional[int]], None]


class MemoryHierarchy:
    """L1s -> banked L2 -> DRAM with latency and bank-contention modelling."""

    def __init__(self, env: Engine, config: "GPUConfig", store: BackingStore) -> None:
        self.env = env
        self.config = config
        self.store = store
        self.l1s: List[Cache] = [
            Cache(
                name=f"l1.cu{i}",
                size_bytes=config.l1_size,
                assoc=config.l1_assoc,
                block_bytes=config.block_bytes,
                hit_latency=config.l1_latency,
            )
            for i in range(config.num_cus)
        ]
        self.l2 = Cache(
            name="l2",
            size_bytes=config.l2_size,
            assoc=config.l2_assoc,
            block_bytes=config.block_bytes,
            hit_latency=config.l2_latency,
        )
        self.l2_banks: List[FifoResource] = [
            FifoResource(env, f"l2.bank{i}") for i in range(config.l2_banks)
        ]
        self.dram = FifoResource(env, "dram", slots=config.dram_channels)
        self.atomic_observer: Optional[AtomicObserver] = None
        #: optional dynamic race detector (repro.analysis.sanitizer);
        #: installed by the GPU when config.sanitize is set
        self.sanitizer = None
        #: extra cycles added to every L2/DRAM completion while a fault-
        #: injected memory-latency spike window is open (0 = no spike)
        self.fault_extra_latency = 0

    # -- topology --------------------------------------------------------
    def bank_for(self, addr: int) -> FifoResource:
        idx = (addr // self.config.block_bytes) % len(self.l2_banks)
        return self.l2_banks[idx]

    # -- plain loads/stores ------------------------------------------------
    def load(self, cu_id: int, addr: int, wg_id: Optional[int] = None) -> Event:
        """Read a word; fires with the value after the access latency."""
        if self.sanitizer is not None and wg_id is not None:
            self.sanitizer.on_load(wg_id, addr)
        cfg = self.config
        l1 = self.l1s[cu_id]
        if l1.access(addr):
            result = Event(self.env)
            self.env.call_at(cfg.l1_latency, self._reply_read, result, addr)
            return result
        return self._l2_access(addr, extra_latency=cfg.l1_latency)

    def store_word(
        self, cu_id: int, addr: int, value: int, wg_id: Optional[int] = None
    ) -> Event:
        """Write-through store; fires when the write reaches the L2."""
        if self.sanitizer is not None and wg_id is not None:
            self.sanitizer.on_store(wg_id, addr)
        self.l1s[cu_id].access(addr)  # write-allocate into L1 tags
        result = Event(self.env)
        self.bank_for(addr).request(self.config.l2_store_service,
                                    self._commit_store, result, addr, value)
        return result

    def _commit_store(self, result: Event, addr: int, value: int) -> None:
        """A store's L2 stage, when its bank finishes serving it."""
        self.l2.access(addr)
        res = atomic_alu.execute(self.store, AtomicOp.STORE, addr, value)
        if self.atomic_observer is not None:
            self.atomic_observer(res, None)
        result.try_succeed(None)

    def _reply_read(self, result: Event, addr: int) -> None:
        """The reply relay of a load: the word is read when the reply
        lands, not when the request is issued."""
        result.try_succeed(self.store.read(addr))

    def _l2_access(self, addr: int, extra_latency: int) -> Event:
        result = Event(self.env)
        self.bank_for(addr).request(self.config.l2_load_service,
                                    self._load_at_l2, result, addr, extra_latency)
        return result

    def _load_at_l2(self, result: Event, addr: int, extra_latency: int) -> None:
        """A load's L2 stage: on a miss the reply waits for DRAM too."""
        cfg = self.config
        latency = extra_latency + cfg.l2_latency + self.fault_extra_latency
        if self.l2.access(addr):
            self.env.call_at(latency, self._reply_read, result, addr)
        else:
            # DRAM's continuation schedules the reply itself
            self.dram.request(cfg.dram_service, self.env.call_at,
                              latency + cfg.dram_latency,
                              self._reply_read, result, addr)

    # -- atomics -----------------------------------------------------------
    def atomic(
        self,
        cu_id: int,
        op: AtomicOp,
        addr: int,
        operand: int = 0,
        operand2: int = 0,
        wg_id: Optional[int] = None,
        l2_hook: Optional[Callable[[AtomicResult], None]] = None,
        service: Optional[int] = None,
    ) -> Event:
        """Perform an atomic at the L2; fires with the :class:`AtomicResult`.

        The ALU executes when the bank grants service, which is the
        serialization point: contended atomics to one synchronization
        variable queue at its bank and observe each other's updates in
        FIFO order.

        ``l2_hook`` runs synchronously at the L2 right after the ALU —
        this is where a *waiting* atomic evaluates its comparison and
        registers its condition with the SyncMon, atomically with the
        memory operation itself (no window of vulnerability, §IV.D).

        ``service`` overrides the bank occupancy; the compare-and-wait
        instruction is a read-only probe and passes the load service time,
        whereas software atomic loads (HeteroSync's ``atomicAdd(x, 0)``
        idiom) occupy the bank like any read-modify-write.
        """
        # Atomics bypass the L1 (performed at L2); invalidate any stale
        # L1 copy so later plain loads see a miss.
        self.l1s[cu_id].invalidate(addr)
        result = Event(self.env)
        self.bank_for(addr).request(
            self.config.l2_atomic_service if service is None else service,
            self._atomic_at_l2, result, op, addr, operand, operand2,
            wg_id, l2_hook,
        )
        return result

    def _atomic_at_l2(self, result: Event, op: AtomicOp, addr: int,
                      operand: int, operand2: int, wg_id: Optional[int],
                      l2_hook: Optional[Callable[[AtomicResult], None]]) -> None:
        """An atomic's L2 stage, when its bank grants service."""
        cfg = self.config
        hit = self.l2.access(addr)
        res = atomic_alu.execute(self.store, op, addr, operand, operand2)
        if self.atomic_observer is not None:
            self.atomic_observer(res, wg_id)
        if self.sanitizer is not None and wg_id is not None:
            self.sanitizer.on_atomic(wg_id, addr, res)
        if l2_hook is not None:
            l2_hook(res)
        latency = (cfg.l2_latency + (0 if hit else cfg.dram_latency)
                   + self.fault_extra_latency)
        self.env.call_at(latency, result.try_succeed, res)

    # -- bulk transfers (context save/restore) -------------------------------
    def bulk_transfer(self, nbytes: int) -> Event:
        """Model a context save/restore as a DRAM-bandwidth-bound burst."""
        cfg = self.config
        blocks = max(1, (nbytes + cfg.block_bytes - 1) // cfg.block_bytes)
        cycles = blocks * cfg.dram_service
        return self.dram.service(cycles)
