"""The device-side API kernels program against.

Kernel bodies are generators; every operation is invoked as
``result = yield from ctx.<op>(...)``. The API exposes:

- compute / plain loads and stores / LDS access / ``s_sleep``
- plain atomics (performed at the L2)
- ``__syncthreads`` (WG-local barrier among wavefronts)
- :meth:`WavefrontCtx.sync_wait` — the *one* synchronization waiting
  entry point. Primitives describe *what* they wait for (address,
  expected value, satisfaction predicate); the active scheduling policy
  decides *how* the wait is lowered: busy-wait loop, software exponential
  backoff, plain-atomic + ``wait`` instruction (with the §IV.C window of
  vulnerability), or a fused waiting atomic (§IV.D).

Every op begins with the same preamble, written out in each op rather
than delegated to a generator: honour forced eviction (kernel-scheduler
preemption) at the op boundary, then charge SIMD issue bandwidth.

An Event only where more than one party can wake a process;
single-waiter stages queue the resume. The issue slot, a compute
quantum, ``s_sleep``, a memory reply and the ``wait`` instruction's L2
stage each have exactly one waiter, so the op hands the stage its
process's ``_resume`` and yields :data:`~repro.sim.process.QUEUED`.
Only the gate, ``syncthreads`` and the wait episodes yield events.

Calling an op *without* ``yield from`` builds a generator that never
runs, so the op silently never executes. The kernel linter's
``missing-yield-from`` rule (``python -m repro lint``) flags that
statically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.core.conditions import WaitCondition
from repro.core.policies import BACKOFF_MIN, WaitMechanism
from repro.core.syncmon import RegisterOutcome
from repro.errors import DeviceError
from repro.mem.atomics import AtomicOp, AtomicResult
from repro.mem.backing import wrap32
from repro.sim.process import QUEUED

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu import GPU
    from repro.gpu.workgroup import WGState, WorkGroup
    from repro.sim.resources import FifoResource


class WavefrontCtx:
    """Execution context handed to a kernel body (one per wavefront)."""

    def __init__(
        self,
        gpu: "GPU",
        wg: "WorkGroup",
        wf_id: int,
        simd: "FifoResource",
    ) -> None:
        self.gpu = gpu
        self.env = gpu.env
        self.wg = wg
        self.wf_id = wf_id
        self.simd = simd
        self.args = wg.kernel.args
        #: ``_resume`` of the process running this context (bound by
        #: :meth:`~repro.gpu.wavefront.Wavefront.start`): every
        #: single-waiter stage of an op calls it with the op's value
        self._resume: Optional[Callable[[object], None]] = None
        #: the waiting atomic in flight (a wavefront issues one op at a
        #: time): its (condition, predicate), and the SyncMon outcome its
        #: L2 hook leaves behind
        self._cmp: Optional[Tuple[WaitCondition, Callable[[int], bool]]] = None
        self._outcome: Optional[RegisterOutcome] = None

    def __getattr__(self, name: str):
        # Lazily bound device counters: ``self._c_loads()`` resolves to the
        # cached ``Counter.incr`` for "device.loads" on first use. Lazy (not
        # eager in __init__) so counters a kernel never touches stay out of
        # the registry and therefore out of stats snapshots.
        if name.startswith("_c_"):
            incr = self.gpu.stats.counter("device." + name[3:]).incr
            setattr(self, name, incr)
            return incr
        raise AttributeError(name)

    # -- identity ---------------------------------------------------------
    @property
    def wg_id(self) -> int:
        """Globally unique WG ID (dispatcher-assigned, across launches)."""
        return self.wg.wg_id

    @property
    def grid_index(self) -> int:
        """This WG's position within its own kernel's grid — use this to
        index grid-local data structures."""
        return self.wg.grid_index

    @property
    def is_master(self) -> bool:
        return self.wf_id == 0

    def _not_resident(self) -> DeviceError:
        return DeviceError(
            f"WG{self.wg_id} issued a device op while not resident"
        )

    # -- op boundary: eviction gate ---------------------------------------------
    def _interrupt_point(self):
        """Honour forced eviction / the suspension gate (op boundary)."""
        from repro.gpu.workgroup import WGState  # local import (cycle)

        wg = self.wg
        if self.is_master and wg.evict_requested and wg.state is WGState.RUNNING:
            yield from wg.evict_and_park()
        while wg.gate is not None and not self.is_master:
            yield wg.gate

    # -- compute and plain memory ---------------------------------------------
    def compute(self, cycles: int):
        """Burn ``cycles`` of ALU work.

        Long bursts are quantized so kernel-scheduler preemption can take
        effect at instruction granularity, not only at op boundaries."""
        wg = self.wg
        if wg.evict_requested or wg.gate is not None:
            yield from self._interrupt_point()
        resume = self._resume
        self.simd.request(self.gpu.config.issue_cycles, resume, None)
        yield QUEUED
        quantum = self.gpu.config.compute_quantum
        remaining = cycles
        while remaining > 0:
            step = min(quantum, remaining)
            self.env.call_at(step, resume, None)
            yield QUEUED
            remaining -= step
            self.gpu.note_execution()
            if remaining > 0:
                yield from self._interrupt_point()
        return None

    def load(self, addr: int):
        """Plain (cached) load; returns the word value."""
        wg = self.wg
        if wg.evict_requested or wg.gate is not None:
            yield from self._interrupt_point()
        self.simd.request(self.gpu.config.issue_cycles, self._resume, None)
        yield QUEUED
        self._c_loads()
        cu = wg.cu
        if cu is None:
            raise self._not_resident()
        self.gpu.hierarchy.load(cu.cu_id, addr, self._resume, wg.wg_id)
        value = yield QUEUED
        return value

    def store(self, addr: int, value: int):
        """Write-through store; completes at the L2."""
        wg = self.wg
        if wg.evict_requested or wg.gate is not None:
            yield from self._interrupt_point()
        self.simd.request(self.gpu.config.issue_cycles, self._resume, None)
        yield QUEUED
        self._c_stores()
        cu = wg.cu
        if cu is None:
            raise self._not_resident()
        self.gpu.hierarchy.store_word(
            cu.cu_id, addr, value, self._resume, wg.wg_id
        )
        yield QUEUED
        return None

    def lds_read(self, index: int):
        """Read the WG's local data share (scratchpad)."""
        wg = self.wg
        if wg.evict_requested or wg.gate is not None:
            yield from self._interrupt_point()
        self.simd.request(self.gpu.config.issue_cycles, self._resume, None)
        yield QUEUED
        return wg.lds.get(index, 0)

    def lds_write(self, index: int, value: int):
        wg = self.wg
        if wg.evict_requested or wg.gate is not None:
            yield from self._interrupt_point()
        self.simd.request(self.gpu.config.issue_cycles, self._resume, None)
        yield QUEUED
        wg.lds[index] = wrap32(value)
        return None

    def s_sleep(self, cycles: int):
        """The GCN ``s_sleep`` instruction: stall without releasing
        resources (no issue charge while asleep)."""
        self._c_sleeps()
        self.env.call_at(max(1, cycles), self._resume, None)
        yield QUEUED
        return None

    def syncthreads(self):
        """WG-local barrier among the WG's wavefronts."""
        wg = self.wg
        if wg.evict_requested or wg.gate is not None:
            yield from self._interrupt_point()
        self.simd.request(self.gpu.config.issue_cycles, self._resume, None)
        yield QUEUED
        yield wg.syncthreads_arrive()
        return None

    def progress(self, tag: str = "progress") -> None:
        """Record a forward-progress event (feeds the deadlock watchdog)."""
        self.gpu.note_progress(tag)

    # -- plain atomics -----------------------------------------------------------
    def atomic(
        self,
        op: AtomicOp,
        addr: int,
        operand: int = 0,
        operand2: int = 0,
    ):
        """Perform an atomic at the L2; returns the :class:`AtomicResult`."""
        wg = self.wg
        if wg.evict_requested or wg.gate is not None:
            yield from self._interrupt_point()
        self.simd.request(self.gpu.config.issue_cycles, self._resume, None)
        yield QUEUED
        self._c_atomics()
        cu = wg.cu
        if cu is None:
            raise self._not_resident()
        self.gpu.hierarchy.atomic(
            cu.cu_id, op, addr, self._resume, operand, operand2, wg.wg_id
        )
        res = yield QUEUED
        return res

    def atomic_load(self, addr: int):
        res = yield from self.atomic(AtomicOp.LOAD, addr)
        return res.old

    def atomic_add(self, addr: int, value: int = 1):
        res = yield from self.atomic(AtomicOp.ADD, addr, value)
        return res.old

    def atomic_sub(self, addr: int, value: int = 1):
        res = yield from self.atomic(AtomicOp.SUB, addr, value)
        return res.old

    def atomic_exch(self, addr: int, value: int):
        res = yield from self.atomic(AtomicOp.EXCH, addr, value)
        return res.old

    def atomic_store(self, addr: int, value: int):
        yield from self.atomic(AtomicOp.STORE, addr, value)
        return None

    def atomic_cas(self, addr: int, compare: int, swap: int):
        res = yield from self.atomic(AtomicOp.CAS, addr, compare, swap)
        return res.old

    # -- the waiting entry point ----------------------------------------------------
    def sync_wait(
        self,
        addr: int,
        expected: int,
        op: AtomicOp = AtomicOp.LOAD,
        operand: int = 0,
        operand2: int = 0,
        satisfied: Optional[Callable[[int], bool]] = None,
        exclusive: bool = False,
        software_backoff: bool = False,
    ):
        """Wait (Mesa semantics) until ``op`` on ``addr`` observes a
        satisfying value; returns the final :class:`AtomicResult`.

        ``expected`` is the value the hardware condition matches on;
        ``satisfied`` is the software re-check predicate over the value
        the atomic returned (defaults to equality with ``expected`` —
        pass e.g. ``lambda v: v >= target`` for monotonic barriers).
        ``exclusive`` hints consumable conditions to the MinResume oracle.
        ``software_backoff`` makes busy-waiting policies back off
        exponentially (the SPMBO benchmark variants).
        """
        if satisfied is None:
            want = wrap32(expected)
            satisfied = lambda v: v == want  # noqa: E731
        policy = self.gpu.policy
        mech = policy.mechanism
        cond = WaitCondition(addr, expected, exclusive=exclusive)

        if mech is WaitMechanism.WAITING_ATOMIC:
            while True:
                res, outcome = yield from self._waiting_atomic(
                    op, addr, operand, operand2, cond, satisfied
                )
                if res.success:
                    return res
                yield from self.wg.wait_on_condition(cond, outcome)

        if mech is WaitMechanism.WAIT_INSTR:
            while True:
                res = yield from self.atomic(op, addr, operand, operand2)
                if satisfied(res.old):
                    res.success = True
                    return res
                # Window of vulnerability: the releasing update can land
                # between this point and the wait instruction's arrival
                # at the L2 (§IV.C.iv / Figure 10 left).
                outcome = yield from self._wait_instr(cond)
                yield from self.wg.wait_on_condition(cond, outcome)

        # Software-only mechanisms: busy-wait or exponential backoff.
        backoff = BACKOFF_MIN
        cap = policy.backoff_max or self.gpu.config.sleep_backoff_max
        use_backoff = mech is WaitMechanism.SLEEP_BACKOFF or software_backoff
        while True:
            res = yield from self.atomic(op, addr, operand, operand2)
            if satisfied(res.old):
                res.success = True
                return res
            self._c_spin_retries()
            if use_backoff:
                yield from self.s_sleep(backoff)
                backoff = min(backoff * 2, cap)

    def _waiting_atomic(
        self,
        op: AtomicOp,
        addr: int,
        operand: int,
        operand2: int,
        cond: WaitCondition,
        satisfied: Callable[[int], bool],
    ):
        """Issue one waiting atomic; comparison + SyncMon registration
        happen atomically at the L2 (the race-free point)."""
        wg = self.wg
        if wg.evict_requested or wg.gate is not None:
            yield from self._interrupt_point()
        self.simd.request(self.gpu.config.issue_cycles, self._resume, None)
        yield QUEUED
        gpu = self.gpu
        self._c_atomics()
        self._c_waiting_atomics()
        cu = wg.cu
        if cu is None:
            raise self._not_resident()
        self._cmp = (cond, satisfied)
        self._outcome = None
        # A compare-and-wait (LOAD-form waiting atomic) never modifies the
        # word: it is a read probe at the L2 and does not hold the bank
        # for a full read-modify-write.
        service = (
            gpu.config.l2_load_service if op is AtomicOp.LOAD else None
        )
        gpu.hierarchy.atomic(
            cu.cu_id, op, addr, self._resume, operand, operand2,
            wg.wg_id, self._compare_at_l2, service,
        )
        res = yield QUEUED
        return res, self._outcome

    def _compare_at_l2(self, result: AtomicResult) -> None:
        """The waiting atomic's L2 hook: compare, and register the
        condition with the SyncMon if it failed."""
        cond, satisfied = self._cmp
        ok = satisfied(result.old)
        result.success = ok
        gpu = self.gpu
        if not ok and gpu.policy.uses_monitor:
            self._outcome = gpu.syncmon.register(self.wg.wg_id, cond)

    def _wait_instr(self, cond: WaitCondition):
        """The standalone ``wait`` instruction (MonR/MonRS): a separate
        trip to the L2 that arms the SyncMon — racy by construction."""
        wg = self.wg
        if wg.evict_requested or wg.gate is not None:
            yield from self._interrupt_point()
        self.simd.request(self.gpu.config.issue_cycles, self._resume, None)
        yield QUEUED
        gpu = self.gpu
        self._c_wait_instrs()
        gpu.hierarchy.bank_for(cond.addr).request(
            gpu.config.l2_store_service, self._arm, cond)
        outcome = yield QUEUED
        return outcome

    def _arm(self, cond: WaitCondition) -> None:
        """The wait instruction's L2 stage: register the condition; the
        outcome reaches the wavefront in the next zero-delay slot."""
        self.env.call_at(
            0, self._resume, self.gpu.syncmon.register(self.wg.wg_id, cond))

    # -- convenience acquire patterns used by the sync library ------------------
    # Both return sync_wait's own generator rather than wrapping it in one
    # more: ``yield from`` runs it the same, one frame shallower per resume.
    def acquire_test_and_set(self, lock_addr: int, software_backoff: bool = False):
        """Acquire a test-and-set lock: exchange 1, wait for old == 0."""
        return self.sync_wait(
            lock_addr,
            expected=0,
            op=AtomicOp.EXCH,
            operand=1,
            exclusive=True,
            software_backoff=software_backoff,
        )

    def wait_for_value(
        self,
        addr: int,
        expected: int,
        satisfied: Optional[Callable[[int], bool]] = None,
        exclusive: bool = False,
        software_backoff: bool = False,
    ):
        """Wait until an atomic load of ``addr`` satisfies the predicate
        (the paper's compare-and-wait instruction, Figure 10 right)."""
        return self.sync_wait(
            addr,
            expected=expected,
            op=AtomicOp.LOAD,
            satisfied=satisfied,
            exclusive=exclusive,
            software_backoff=software_backoff,
        )
