"""Work-group state machine and the cooperative waiting protocol.

A WG moves through the states the paper's CP firmware tracks (§V.A):
``PENDING`` (never dispatched) → ``RUNNING`` → ``STALLED`` (waiting,
holding CU resources) → ``SWITCHING_OUT`` → ``SWITCHED_OUT`` (waiting,
no resources) → ``READY`` → ``RESUMING`` → ``RUNNING`` → ``DONE``.

:meth:`WorkGroup.wait_on_condition` implements the per-policy waiting
protocol of Figure 6, executed by the master wavefront after a failed
waiting atomic / armed wait instruction:

- Timeout: stall (or context switch when oversubscribed) for the fixed
  interval, then retry.
- Monitor policies (MonRS/MonR/MonNR/MinResume): context switch
  immediately when oversubscribed, otherwise stall; resume on SyncMon
  notification, on MonNR-One's straggler timer, or on the backstop.
- AWG: stall for a *predicted* period first; context switch only if the
  period expires while the kernel oversubscribes the GPU.

All resumptions honour Mesa semantics: the caller re-executes its atomic
and may wait again.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Optional

from repro.core.conditions import WaitCondition
from repro.core.policies import NotifyMode
from repro.core.syncmon import RegisterOutcome
from repro.sim.events import AnyOf, Event
from repro.sim.stats import Counter, RunningMean
from repro.trace.tracer import wg_track

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.compute_unit import ComputeUnit
    from repro.gpu.gpu import GPU
    from repro.gpu.kernel import Kernel


class WGState(enum.Enum):
    # identity hash: the per-transition dict and set lookups below skip
    # Enum's Python-level __hash__ (members compare by identity anyway)
    __hash__ = object.__hash__

    PENDING = "pending"
    RUNNING = "running"
    STALLED = "stalled"
    SWITCHING_OUT = "switching_out"
    SWITCHED_OUT = "switched_out"
    READY = "ready"
    RESUMING = "resuming"
    DONE = "done"


#: states in which the WG is waiting on synchronization (Fig 11 breakdown)
_WAITING_STATES = frozenset(
    {WGState.STALLED, WGState.SWITCHING_OUT, WGState.SWITCHED_OUT,
     WGState.READY, WGState.RESUMING}
)
#: states in which the WG holds CU residency (RESUMING has its slot
#: allocated while its context streams back in)
RESIDENT_STATES = frozenset(
    {WGState.RUNNING, WGState.STALLED, WGState.SWITCHING_OUT, WGState.RESUMING}
)

#: flat accounting bucket per state: 0 = running, 1 = waiting, 2 = pending
#: (Fig 11 breakdown); precomputed so the per-transition accounting in
#: set_state is one list index instead of a classification call
_BUCKET_INDEX = {
    state: (2 if state is WGState.PENDING
            else 1 if state in _WAITING_STATES
            else 0)
    for state in WGState
}


class WorkGroup:
    """One work-group of a kernel launch."""

    def __init__(self, gpu: "GPU", kernel: "Kernel", wg_id: int,
                 grid_index: int = 0) -> None:
        self.gpu = gpu
        self.kernel = kernel
        #: globally unique dispatcher-assigned ID (§V.B)
        self.wg_id = wg_id
        #: position within this kernel's grid (0 .. grid_wgs-1)
        self.grid_index = grid_index
        self.state = WGState.PENDING
        self.cu: Optional["ComputeUnit"] = None
        self.started = False  # has it ever been dispatched?
        self.wavefronts: list = []
        self.done_event = Event(gpu.env)

        # waiting machinery
        self.cond: Optional[WaitCondition] = None
        self.resume_event: Optional[Event] = None
        self.evict_event: Optional[Event] = None
        self.evict_requested = False
        #: closed gate parks worker wavefronts while the WG is not resident
        self.gate: Optional[Event] = None
        self.ready_when_saved = False
        #: sticky notification: a resume raced our transition into the
        #: waiting state (consumed at the next wait_on_condition entry)
        self.pending_notify = False
        #: condition whose last wait episode ended by timer, not notify —
        #: a repeat wait on it means the stall prediction already failed
        self._timer_expired_cond: Optional[WaitCondition] = None

        # local data share (functional model)
        self.lds: Dict[int, int] = {}
        self._syncthreads_arrived = 0
        self._syncthreads_release: Optional[Event] = None

        # accounting (Fig 11: running vs waiting breakdown)
        self._state_since = gpu.env.now
        self._bucket_cycles = [0, 0, 0]  # running, waiting, pending
        self._bucket_idx = _BUCKET_INDEX[self.state]
        self.context_switches = 0
        self.wait_episodes = 0
        # wait-episode stat handles, looked up at first use so that a run
        # without wait episodes registers neither stat
        self._episode_cycles: Optional[RunningMean] = None
        self._retries: Dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # state accounting
    # ------------------------------------------------------------------
    @property
    def cycles_by_bucket(self) -> Dict[str, int]:
        """Fig 11 breakdown. A view over the flat per-bucket tallies —
        the hot per-transition accounting lives in :meth:`set_state`."""
        cycles = self._bucket_cycles
        return {"running": cycles[0], "waiting": cycles[1],
                "pending": cycles[2]}

    def set_state(self, new: WGState) -> None:
        now = self.gpu.env.now
        self._bucket_cycles[self._bucket_idx] += now - self._state_since
        self._state_since = now
        if new is not self.state:
            tracer = self.gpu.tracer
            if tracer is not None:
                tracer.set_span("wg", wg_track(self.wg_id), new.value)
        self.state = new
        self._bucket_idx = _BUCKET_INDEX[new]

    @property
    def resident(self) -> bool:
        return self.state in RESIDENT_STATES

    def context_bytes(self) -> int:
        return self.kernel.context_bytes()

    # ------------------------------------------------------------------
    # gate (parks worker wavefronts when the WG is not resident)
    # ------------------------------------------------------------------
    def close_gate(self) -> None:
        if self.gate is None:
            self.gate = Event(self.gpu.env)

    def open_gate(self) -> None:
        if self.gate is not None:
            gate, self.gate = self.gate, None
            gate.try_succeed()

    # ------------------------------------------------------------------
    # local barrier (__syncthreads) among the WG's wavefronts
    # ------------------------------------------------------------------
    def syncthreads_arrive(self) -> Event:
        """Returns the event that releases this arrival's wavefront."""
        env = self.gpu.env
        if self._syncthreads_release is None:
            self._syncthreads_release = Event(env)
        release = self._syncthreads_release
        self._syncthreads_arrived += 1
        if self._syncthreads_arrived >= max(1, len(self.wavefronts)):
            self._syncthreads_arrived = 0
            self._syncthreads_release = None
            release.succeed(delay=self.gpu.config.issue_cycles)
        return release

    # ------------------------------------------------------------------
    # eviction (kernel-scheduler preemption / dynamic resource loss)
    # ------------------------------------------------------------------
    def request_evict(self) -> None:
        """Forcibly take this WG's resources (called by the preemption
        machinery). RUNNING WGs notice at their next device op; waiting
        WGs are woken through their evict branch."""
        if not self.resident:
            return
        self.evict_requested = True
        if self.evict_event is not None:
            self.evict_event.try_succeed()

    # ------------------------------------------------------------------
    # context switching
    # ------------------------------------------------------------------
    def switch_out(self):
        """Generator: save context, release the CU slot (master-side)."""
        gpu = self.gpu
        self.set_state(WGState.SWITCHING_OUT)
        self.close_gate()
        self.context_switches += 1
        yield from gpu.cp.save_context(self)
        cu, self.cu = self.cu, None
        if cu is not None:
            cu.release(self)
        self.set_state(WGState.SWITCHED_OUT)
        gpu.dispatcher.kick()
        if self.ready_when_saved:
            self.ready_when_saved = False
            gpu.dispatcher.mark_ready(self, cause="met-while-switching")

    def evict_and_park(self):
        """Generator: forced eviction of a RUNNING WG at an op boundary.

        The WG is runnable (it was not waiting on a condition) so it goes
        straight onto the ready queue and parks until re-dispatched."""
        self.evict_requested = False
        self.resume_event = Event(self.gpu.env)
        yield from self.switch_out()
        self.gpu.dispatcher.mark_ready(self, cause="evicted")
        yield self.resume_event
        self.set_state(WGState.RUNNING)

    # ------------------------------------------------------------------
    # the waiting protocol (Figure 6)
    # ------------------------------------------------------------------
    def wait_on_condition(
        self,
        cond: WaitCondition,
        outcome: Optional[RegisterOutcome],
    ):
        """Generator: park this WG until it should retry its atomic.

        ``outcome`` is the SyncMon registration outcome (None for
        policies with no monitor, e.g. Timeout)."""
        gpu = self.gpu
        env = gpu.env
        policy = gpu.policy
        cfg = gpu.config
        tracer = gpu.tracer

        if outcome is RegisterOutcome.LOG_FULL:
            # Nowhere to store the condition: Mesa busy retry (§V.A).
            if tracer is not None:
                tracer.instant("wg", "wait:log-full",
                               track=wg_track(self.wg_id), addr=cond.addr)
            yield env.timeout(cfg.log_full_retry)
            return

        if self.pending_notify:
            # Our condition was met while the failing atomic's response
            # was still in flight; never enter the waiting state.
            self.pending_notify = False
            if tracer is not None:
                tracer.instant("wg", "wait:pending-notify",
                               track=wg_track(self.wg_id), addr=cond.addr)
            yield env.timeout(cfg.resume_latency)
            return

        registered = outcome in (RegisterOutcome.REGISTERED, RegisterOutcome.SPILLED)
        self.wait_episodes += 1
        self.cond = cond
        self.resume_event = Event(env)
        self.evict_event = Event(env)
        if self.evict_requested:
            self.evict_event.try_succeed()
        started = env.now
        oversub = gpu.dispatcher.has_runnable_work()

        # -- plan deadlines (absolute cycles); None = never ---------------
        # retry_source names which timer the retry deadline came from
        # ("interval" / "straggler" / "backstop") — surfaced as
        # wait.retry.* stats and trace instants when the timer fires, so
        # the differential suite can tell a scheduled wake-up from a
        # window-of-vulnerability recovery.
        switch_deadline: Optional[int] = None
        retry_deadline: Optional[int] = None
        retry_source = "interval"
        if policy.notify is NotifyMode.NONE:
            # Timeout policy: no monitor; pure timer. Only hardware waits
            # get here, and they all provide IFP: switch now iff
            # oversubscribed.
            if oversub:
                switch_deadline = started
            retry_deadline = started + policy.timeout_interval
        elif policy.predict_stall:
            # AWG: stall a predicted period before considering a switch.
            # A repeat wait on a condition whose previous episode already
            # timed out means the stall prediction failed — don't
            # re-predict, consider switching right away (Mesa retries must
            # not reset the stall clock, or stalled WGs starve ready ones
            # forever).
            if self._timer_expired_cond == cond:
                switch_deadline = started
            else:
                predicted = gpu.syncmon.stall_predictor.predict()
                switch_deadline = started + predicted
                if tracer is not None:
                    tracer.instant("predict", "stall",
                                   track=wg_track(self.wg_id),
                                   cycles=predicted, addr=cond.addr)
        elif oversub:
            # Monitor policies: switch now iff oversubscribed.
            switch_deadline = started
        if policy.notify is not NotifyMode.NONE:
            # Monitor policies retry on the straggler timeout (MonNR-One;
            # AWG's misprediction recovery) or the backstop, whichever is
            # sooner (the backstop on a tie).
            straggler = policy.timeout_interval
            backstop = policy.backstop_timeout
            if backstop is not None and (straggler is None
                                         or backstop <= straggler):
                retry_deadline, retry_source = started + backstop, "backstop"
            elif straggler is not None:
                retry_deadline, retry_source = started + straggler, "straggler"

        self.set_state(WGState.STALLED)
        gpu.cp.note_waiting(self)
        try:
            while True:
                branches = [self.resume_event, self.evict_event]
                # the timer is for the sooner deadline (the retry on a tie)
                if switch_deadline is not None and self.resident and (
                        retry_deadline is None
                        or switch_deadline < retry_deadline):
                    when, deadline_kind = switch_deadline, "switch"
                else:
                    when, deadline_kind = retry_deadline, "retry"
                if when is not None:
                    branches.append(env.timeout(max(0, when - env.now)))

                choice = yield AnyOf(env, branches)
                idx, _value = choice

                if idx == 0:  # resumed (notification or dispatcher swap-in)
                    self._timer_expired_cond = None
                    break

                if idx == 1:  # evicted while waiting
                    self.evict_requested = False
                    self.evict_event = Event(env)
                    if self.resident:
                        yield from self.switch_out()
                        retry_deadline, retry_source = (
                            self._switched_retry_deadline(
                                retry_deadline, retry_source
                            )
                        )
                    continue

                # timer fired
                if deadline_kind == "switch":
                    switch_deadline = None
                    if policy.predict_stall and not gpu.dispatcher.has_runnable_work():
                        # AWG: not oversubscribed — keep stalling for notify.
                        continue
                    yield from self.switch_out()
                    retry_deadline, retry_source = (
                        self._switched_retry_deadline(
                            retry_deadline, retry_source
                        )
                    )
                    continue

                # retry deadline: give up waiting, re-check the condition.
                self._timer_expired_cond = cond
                retries = self._retries.get(retry_source)
                if retries is None:
                    retries = self._retries[retry_source] = (
                        gpu.stats.counter(f"wait.retry.{retry_source}"))
                retries.incr()
                if tracer is not None:
                    tracer.instant("wg", f"retry:{retry_source}",
                                   track=wg_track(self.wg_id), addr=cond.addr,
                                   waited=env.now - started)
                if registered and policy.uses_monitor:
                    gpu.syncmon.withdraw(self.wg_id, cond)
                if not self.resident:
                    if self.state is WGState.SWITCHED_OUT:
                        gpu.dispatcher.mark_ready(self, cause="timer")
                    # Park until the dispatcher swaps us back in.
                    yield self.resume_event
                break
        finally:
            gpu.cp.note_not_waiting(self)
            self.cond = None
            self.evict_event = None

        if not self.resident:
            # Resumed while switched out: the dispatcher should have swapped
            # us in before firing resume; defensive wait otherwise.
            self.resume_event = Event(env)
            if self.state is not WGState.RUNNING:
                gpu.dispatcher.mark_ready(self, cause="late-resume")
                yield self.resume_event
        self.set_state(WGState.RUNNING)
        episode_cycles = self._episode_cycles
        if episode_cycles is None:
            episode_cycles = self._episode_cycles = (
                gpu.stats.running_mean("wg.wait_episode_cycles"))
        episode_cycles.add(env.now - started)

    def _switched_retry_deadline(self, retry_deadline, retry_source: str):
        """Recompute the (retry deadline, deadline source) after a
        context switch.

        The straggler timeout only applies to *stalled* (resident) WGs —
        re-swapping a switched-out WG on a short timer would thrash the
        context-switch path. Monitor policies fall back to the long
        backstop once out (none without a backstop: only a notify resumes
        it); the Timeout policy keeps its fixed interval (sleeping
        switched-out for the interval *is* its semantics)."""
        policy = self.gpu.policy
        if policy.notify is NotifyMode.NONE:
            return retry_deadline, retry_source
        if policy.backstop_timeout is None:
            return None, retry_source
        return self.gpu.env.now + policy.backstop_timeout, "backstop"
