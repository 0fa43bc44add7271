"""Work-group state machine and the cooperative waiting protocol.

A WG moves through the states the paper's CP firmware tracks (§V.A):
``PENDING`` (never dispatched) → ``RUNNING`` → ``STALLED`` (waiting,
holding CU resources) → ``SWITCHING_OUT`` → ``SWITCHED_OUT`` (waiting,
no resources) → ``READY`` → ``RESUMING`` → ``RUNNING`` → ``DONE``.

A wait episode (Figure 6), run by the WG's coroutine after a failed
waiting atomic or armed wait instruction, is split in two. The policy's
choices are plain functions, tested without a simulation: :func:`plan`
sets the switch and retry deadlines at wait start, :func:`decide` turns
each event into resume, keep stalling, switch out or retry, and
:func:`switched_out` moves the retry deadline once the WG is out.
:meth:`WorkGroup.wait_on_condition` carries the actions out; DESIGN.md
§5 gives the decision table. All resumptions honour Mesa semantics: the
caller re-executes its atomic and may wait again.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.core.conditions import WaitCondition
from repro.core.policies import NotifyMode
from repro.core.syncmon import RegisterOutcome
from repro.sim.events import AnyOf, Event
from repro.sim.stats import Counter, RunningMean
from repro.trace.tracer import wg_track

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.policies import PolicySpec
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

        # waiting machinery
        self.cond: Optional[WaitCondition] = None
        self.resume_event: Optional[Event] = None
        self.evict_event: Optional[Event] = None
        self.evict_requested = False
        self.ready_when_saved = False
        #: sticky notification: a resume raced our transition into the
        #: waiting state (consumed at the next wait_on_condition entry)
        self.pending_notify = False
        #: condition whose last wait episode ended by timer, not notify —
        #: a repeat wait on it means the stall prediction already failed
        self._timer_expired_cond: Optional[WaitCondition] = None

        # local data share (functional model)
        self.lds: Dict[int, int] = {}

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
        """Generator: save context, release the CU slot."""
        gpu = self.gpu
        self.set_state(WGState.SWITCHING_OUT)
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
    # the waiting protocol (Figure 6): carries out plan() and decide()
    # ------------------------------------------------------------------
    def wait_on_condition(
        self,
        cond: WaitCondition,
        outcome: Optional[RegisterOutcome],
    ):
        """Generator: park this WG until it should retry its atomic.

        ``outcome`` is the SyncMon registration outcome (None for
        policies with no monitor, e.g. Timeout). Each turn waits on the
        resume event, the evict event and one timer, in that order."""
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
        oversubscribed = gpu.dispatcher.has_runnable_work
        predicted = None
        if policy.predict_stall and self._timer_expired_cond != cond:
            predicted = gpu.syncmon.stall_predictor.predict()
            if tracer is not None:
                tracer.instant("predict", "stall", track=wg_track(self.wg_id),
                               cycles=predicted, addr=cond.addr)
        episode = plan(policy, env.now, oversubscribed(), predicted)

        self.set_state(WGState.STALLED)
        gpu.cp.note_waiting(self)
        try:
            while True:
                when = (episode.retry_at if episode.switch_at is None
                        else episode.switch_at)
                branches = [self.resume_event, self.evict_event]
                if when is not None:
                    branches.append(env.timeout(max(0, when - env.now)))
                event, _value = yield AnyOf(env, branches)
                if event == EVICTED:  # consumed; a later one fires anew
                    self.evict_requested = False
                    self.evict_event = Event(env)
                action = decide(policy, episode, event,
                                self.state in RESIDENT_STATES, oversubscribed)
                if action is SWITCH:
                    yield from self.switch_out()
                    switched_out(policy, episode, env.now)
                elif action is RESUME:
                    self._timer_expired_cond = None
                    break
                elif action is RETRY:  # give up waiting, re-check
                    self._timer_expired_cond = cond
                    source = episode.retry_source
                    retries = self._retries.get(source)
                    if retries is None:
                        retries = self._retries[source] = (
                            gpu.stats.counter(f"wait.retry.{source}"))
                    retries.incr()
                    if tracer is not None:
                        tracer.instant("wg", f"retry:{source}",
                                       track=wg_track(self.wg_id),
                                       addr=cond.addr,
                                       waited=env.now - episode.started)
                    if registered and policy.uses_monitor:
                        gpu.syncmon.withdraw(self.wg_id, cond)
                    if self.state not in RESIDENT_STATES:
                        if self.state is WGState.SWITCHED_OUT:
                            gpu.dispatcher.mark_ready(self, cause="timer")
                        # Park until the dispatcher swaps us back in.
                        yield self.resume_event
                    break
        finally:
            gpu.cp.note_not_waiting(self)
            self.cond = None
            self.evict_event = None

        if self.state not in RESIDENT_STATES:
            # the late resume (see decide): wait for our own swap-in
            self.resume_event = Event(env)
            if self.state is not WGState.RUNNING:
                gpu.dispatcher.mark_ready(self, cause="late-resume")
                yield self.resume_event
        self.set_state(WGState.RUNNING)
        episode_cycles = self._episode_cycles
        if episode_cycles is None:
            episode_cycles = self._episode_cycles = (
                gpu.stats.running_mean("wg.wait_episode_cycles"))
        episode_cycles.add(env.now - episode.started)


#: what ends a turn of a wait episode: the ``AnyOf`` branch index
NOTIFIED, EVICTED, TIMER = 0, 1, 2
#: the Fig 6 actions :func:`decide` chooses between
RESUME, STALL, SWITCH, RETRY = "resume", "stall", "switch", "retry"


class Episode:
    """A wait episode's deadlines in cycles (None = never). ``switch_at``,
    while set, is before ``retry_at`` and is the turn's timer.
    ``retry_source`` ("interval", "straggler", "backstop") names the retry
    in ``wait.retry.*`` stats and trace instants, so the differential
    suite can tell a scheduled wake-up from a race-window recovery."""

    __slots__ = ("started", "oversubscribed", "switch_at", "retry_at",
                 "retry_source")


def plan(policy: "PolicySpec", started: int, oversubscribed: bool,
         predicted: Optional[int]) -> Episode:
    """The deadlines of a wait that starts at cycle ``started`` while WGs
    wait for a slot (``oversubscribed``) or not. ``predicted`` is AWG's
    predicted stall, None on a repeat wait whose last episode timed out:
    the prediction failed, so AWG considers switching at once (Mesa
    retries must not reset the stall clock, or stalled WGs starve)."""
    # switch now iff oversubscribed; AWG after its predicted stall
    switch_at = started if oversubscribed else None
    if policy.notify is NotifyMode.NONE:  # Timeout: a pure timer
        retry_at, source = started + policy.timeout_interval, "interval"
    else:
        if policy.predict_stall:
            switch_at = started + (predicted or 0)
        # retry on the straggler timer (MonNR-One; AWG's misprediction
        # recovery) or the backstop, whichever is sooner (backstop on a tie)
        straggler, backstop = policy.timeout_interval, policy.backstop_timeout
        if backstop is not None and (straggler is None or backstop <= straggler):
            retry_at, source = started + backstop, "backstop"
        elif straggler is not None:
            retry_at, source = started + straggler, "straggler"
        else:
            retry_at = source = None
        if retry_at is not None and switch_at is not None and switch_at >= retry_at:
            switch_at = None  # the retry wins a tie, and ends the wait
    episode = Episode()
    episode.started, episode.oversubscribed = started, oversubscribed
    episode.switch_at, episode.retry_at = switch_at, retry_at
    episode.retry_source = source
    return episode


def decide(policy: "PolicySpec", episode: Episode, event: int,
           resident: bool, oversubscribed_now: Callable[[], bool]) -> str:
    """The Fig 6 action for one event of a wait episode. It calls
    ``oversubscribed_now`` only for AWG's second sample, taken when its
    predicted stall expires, and changes nothing but ``episode``: a
    switch-out or an expired switch deadline spends ``switch_at``."""
    if event == NOTIFIED:
        # A notify, or a swap-in finishing, possibly one left over from an
        # earlier episode: a retry timer firing while the WG is RESUMING
        # (resident) retries at once, before the restore completes, and
        # that swap-in then fires whatever resume event the WG has. If the
        # WG is out by then, wait_on_condition's late resume re-queues it.
        # A known defect, pinned by a strict xfail in test_workgroup.py.
        return RESUME
    if event == EVICTED:
        if not resident:
            return STALL  # the eviction raced our own switch-out
    elif episode.switch_at is None:
        return RETRY
    elif policy.predict_stall and not oversubscribed_now():
        episode.switch_at = None  # AWG: nothing to run; stall on
        return STALL
    episode.switch_at = None
    return SWITCH


def switched_out(policy: "PolicySpec", episode: Episode, now: int) -> None:
    """Move the retry deadline once the WG is out, at cycle ``now``.
    Re-swapping a switched-out WG on the short straggler timer would
    thrash the context-switch path, so monitor policies fall back to the
    backstop (no deadline without one: only a notify resumes the WG).
    Timeout keeps its interval: sleeping out for it *is* its semantics."""
    if policy.notify is not NotifyMode.NONE:
        backstop = policy.backstop_timeout
        episode.retry_at = None if backstop is None else now + backstop
        episode.retry_source = "backstop"
