"""The WG dispatcher (paper §V.B).

Assigns unique WG IDs, packs WGs onto compute units as slots free up,
routes SyncMon resume notifications to stalled or context-switched WGs,
and swaps ready WGs back in through the Command Processor. WGs are
dispatched oldest-first, ready (previously started) WGs before pending
(never started) ones.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.sim.events import AllOf
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.compute_unit import ComputeUnit
    from repro.gpu.gpu import GPU
    from repro.gpu.workgroup import WorkGroup


class Dispatcher:
    """Routes WGs between the pending/ready queues and the CUs."""

    #: consecutive ready-over-pending placements before the oldest
    #: pending WG is force-dispatched. Ready-before-pending is the right
    #: default (a started WG holds saved context and sync state), but a
    #: sustained notify storm — e.g. MonRS-All waiters sporadically
    #: re-waking each other on one contended address — can cycle ready
    #: WGs through the slots forever while a never-started WG starves,
    #: silently breaking the IFP guarantee the policy claims. Aging
    #: bounds that: pending WGs wait at most this many placements.
    STARVATION_LIMIT = 64

    def __init__(self, gpu: "GPU") -> None:
        self.gpu = gpu
        self.pending: Deque["WorkGroup"] = deque()
        self.ready: Deque["WorkGroup"] = deque()
        self._kick_scheduled = False
        self._pending_passovers = 0

    # ------------------------------------------------------------------
    # queue management
    # ------------------------------------------------------------------
    def add(self, wg: "WorkGroup") -> None:
        self.pending.append(wg)
        self.kick()

    def mark_ready(self, wg: "WorkGroup", cause: str = "") -> None:
        """A switched-out WG can run again (condition met / timer / evicted)."""
        from repro.gpu.workgroup import WGState  # local import (cycle)

        if not self.gpu.policy.provides_ifp:
            # A baseline GPU has no WG-scheduling machinery: a WG context-
            # switched out by the kernel-level scheduler can never be
            # restored (this is why every Figure 15 Baseline/Sleep run
            # deadlocks once resources are lost mid-kernel).
            return
        if wg.state is WGState.SWITCHING_OUT:
            wg.ready_when_saved = True
            return
        if wg.state is not WGState.SWITCHED_OUT:
            return
        wg.set_state(WGState.READY)
        tracer = self.gpu.tracer
        if tracer is not None:
            tracer.instant("dispatch", "ready", track="dispatcher",
                           wg=wg.wg_id, cause=cause)
        self.ready.append(wg)
        self.kick()

    def has_runnable_work(self) -> bool:
        """Is the kernel oversubscribing the GPU right now? True when WGs
        exist that want resources (never-started or ready-to-resume)."""
        return bool(self.pending) or bool(self.ready)

    # ------------------------------------------------------------------
    # the dispatch pass
    # ------------------------------------------------------------------
    def kick(self) -> None:
        if self._kick_scheduled:
            return
        self._kick_scheduled = True
        self.gpu.env.call_at(0, self._pass)

    def _free_cu(self) -> Optional["ComputeUnit"]:
        best = None
        for cu in self.gpu.cus:
            if cu.has_slot() and (best is None or cu.free_slots > best.free_slots):
                best = cu
        return best

    def _select(self) -> Optional["WorkGroup"]:
        """Pick the next WG to place: the ready (previously started) head
        before the pending (never started) head, FIFO within a queue.

        Anti-starvation aging: after STARVATION_LIMIT consecutive
        ready-over-pending picks, the oldest pending WG is placed instead
        (once), so never-started WGs cannot starve behind a
        self-sustaining resume storm."""
        pending = self.pending
        if pending and self._pending_passovers >= self.STARVATION_LIMIT:
            self._pending_passovers = 0
            wg = pending.popleft()
            tracer = self.gpu.tracer
            if tracer is not None:
                tracer.instant("dispatch", "starvation-override",
                               track="dispatcher", wg=wg.wg_id)
            return wg
        if self.ready:
            self._pending_passovers = (
                self._pending_passovers + 1 if pending else 0)
            return self.ready.popleft()
        if pending:
            self._pending_passovers = 0
            return pending.popleft()
        return None

    def requeue(self, wg: "WorkGroup") -> None:
        """Kernel-level restore: put a switched-out or pending WG back in
        the queues regardless of the WG-scheduling policy."""
        # no caller; kept as perfbench/tracing.py wraps it (requeue.calls)
        from repro.gpu.workgroup import WGState

        if wg.state is WGState.SWITCHED_OUT:
            wg.set_state(WGState.READY)
            self.ready.append(wg)
        elif wg.state is WGState.PENDING and wg not in self.pending:
            self.pending.append(wg)
        self.kick()

    def _pass(self) -> None:
        self._kick_scheduled = False
        while True:
            cu = self._free_cu()
            if cu is None:
                return
            wg = self._select()
            if wg is None:
                return
            if wg.started:
                self._swap_in_async(wg, cu)
            else:
                self._start(wg, cu)

    def _start(self, wg: "WorkGroup", cu: "ComputeUnit") -> None:
        from repro.gpu.workgroup import WGState

        cu.allocate(wg)
        wg.cu = cu
        wg.started = True
        tracer = self.gpu.tracer
        if tracer is not None:
            tracer.instant("dispatch", "dispatch", track="dispatcher",
                           wg=wg.wg_id, cu=cu.cu_id)
        wg.set_state(WGState.RUNNING)
        procs = [wf.start(cu.pick_simd()) for wf in wg.wavefronts]
        AllOf(self.gpu.env, procs).add_callback(
            lambda _ev, w=wg: self.gpu.wg_done(w)
        )

    def _swap_in_async(self, wg: "WorkGroup", cu: "ComputeUnit") -> None:
        from repro.gpu.workgroup import WGState

        # Claim the slot synchronously so a later dispatch decision in the
        # same pass (or a racing pass) cannot double-book it.
        cu.allocate(wg)
        wg.cu = cu
        tracer = self.gpu.tracer
        if tracer is not None:
            tracer.instant("dispatch", "swap-in", track="dispatcher",
                           wg=wg.wg_id, cu=cu.cu_id)
        wg.set_state(WGState.RESUMING)
        Process(self.gpu.env, self._swap_in(wg, cu), name=f"swapin.wg{wg.wg_id}")

    def _swap_in(self, wg: "WorkGroup", cu: "ComputeUnit"):
        yield from self.gpu.cp.restore_context(wg)
        wg.open_gate()
        ev = wg.resume_event
        if ev is not None:
            ev.try_succeed()

    # ------------------------------------------------------------------
    # resume notifications (SyncMon ❺ / CP ⑨ → dispatcher ❻/⑧)
    # ------------------------------------------------------------------
    def notify_met(self, wg_ids: List[int], cause: str, stagger: int) -> None:
        """Resume waiting WGs; staggered delivery avoids retry contention
        (used by the MinResume oracle)."""
        base = self.gpu.config.resume_latency
        for i, wg_id in enumerate(wg_ids):
            wg = self.gpu.wgs[wg_id]
            self.gpu.env.call_at(
                base + i * stagger, lambda w=wg, c=cause: self._deliver(w, c)
            )

    def _deliver(self, wg: "WorkGroup", cause: str) -> None:
        from repro.gpu.workgroup import WGState

        tracer = self.gpu.tracer
        if tracer is not None:
            # one "notify" per delivery attempt; a "drop" follows when the
            # target was already on its way (delivered = notify - drop)
            tracer.instant("dispatch", "notify", track="dispatcher",
                           wg=wg.wg_id, cause=cause, state=wg.state.value)
        if wg.state is WGState.STALLED:
            ev = wg.resume_event
            if ev is not None and ev.try_succeed():
                return
        elif wg.state is WGState.SWITCHED_OUT:
            self.mark_ready(wg, cause=cause)
            return
        elif wg.state is WGState.SWITCHING_OUT:
            wg.ready_when_saved = True
            return
        elif wg.state is WGState.RUNNING:
            # The notification raced the waiting atomic's response back to
            # the CU: the SyncMon already popped the waiter, but the WG is
            # about to enter its waiting state. Leave a sticky notification
            # so wait_on_condition returns immediately (hardware analog:
            # the resume message arrives with/after the atomic response and
            # the desired waiting state is never entered).
            wg.pending_notify = True
            return
        # READY / RESUMING / DONE: the WG is already on its way
        # (Mesa semantics make dropped hints harmless).
        if tracer is not None:
            tracer.instant("dispatch", "drop", track="dispatcher",
                           wg=wg.wg_id, cause=cause, state=wg.state.value)
