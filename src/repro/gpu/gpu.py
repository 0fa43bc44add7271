"""The top-level GPU device: wiring, kernel launch, run loop, watchdog.

Construction wires together the engine, memory hierarchy, SyncMon,
Monitor Log, Command Processor, dispatcher and CUs according to one
:class:`~repro.gpu.config.GPUConfig` and one
:class:`~repro.core.policies.PolicySpec`. :meth:`GPU.run` drives the
event loop until the launched kernels complete, the progress watchdog
declares deadlock, or the cycle budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.monitor_log import MonitorLog
from repro.core.policies import PolicySpec
from repro.core.syncmon import SyncMon
from repro.faults.injector import FaultInjector
from repro.gpu.compute_unit import ComputeUnit
from repro.gpu.config import GPUConfig
from repro.gpu.command_processor import CommandProcessor
from repro.gpu.diagnostics import build_stall_report, classify_stagnation
from repro.gpu.dispatcher import Dispatcher
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.workgroup import WGState, WorkGroup
from repro.mem.backing import BackingStore
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.engine import Engine
from repro.sim.rng import RngStream
from repro.sim.stats import StatRegistry
from repro.trace.tracer import Tracer

#: consecutive watchdog windows with progress events but no condition
#: advancement before the run is declared livelocked
LIVELOCK_WINDOWS = 8


@dataclass
class RunResult:
    """Outcome of one simulated run: what :meth:`GPU.run` returns, and
    what the experiment matrix caches (every field but ``gpu``)."""

    benchmark: str
    policy: str
    cycles: int
    completed: bool
    deadlocked: bool
    reason: str
    context_switches: int
    wg_running_cycles: int
    wg_waiting_cycles: int
    #: scenario label (set by ``run_benchmark``; "" for a bare GPU run)
    scenario: str = ""
    stats: Dict[str, float] = field(default_factory=dict)
    #: structured watchdog diagnosis (kind, reason, per-WG stall report);
    #: None unless the run deadlocked or livelocked
    diagnosis: Optional[Dict[str, Any]] = None
    #: exported Chrome trace_event document when ``GPUConfig.trace`` was
    #: set and ``run_benchmark`` ran the cell (plain JSON-serializable
    #: dict, so it survives the result cache); None otherwise
    trace: Optional[Dict[str, Any]] = None
    gpu: Optional["GPU"] = None

    @property
    def ok(self) -> bool:
        return self.completed and not self.deadlocked

    @property
    def atomics(self) -> int:
        return int(self.stats.get("device.atomics", 0))

    @property
    def waiting_atomics(self) -> int:
        return int(self.stats.get("device.waiting_atomics", 0))


class GPU:
    """One simulated GPU device under one scheduling policy."""

    def __init__(
        self,
        config: GPUConfig,
        policy: PolicySpec,
    ) -> None:
        self.config = config
        self.policy = policy
        self.env = Engine()
        self.rng = RngStream(config.seed, "gpu")
        self.stats = StatRegistry()
        #: structured event tracer (:mod:`repro.trace`); None = tracing off
        self.tracer: Optional[Tracer] = (
            Tracer(self.env, config.trace)
            if config.trace is not None else None
        )
        self.store = BackingStore()
        self.hierarchy = MemoryHierarchy(self.env, config, self.store)
        self.monitor_log = MonitorLog(self.store, config.monitor_log_entries)
        self.syncmon = SyncMon(
            self.env, config, self.hierarchy, self.monitor_log,
            policy, self.rng.child("syncmon"),
        )
        self.cus: List[ComputeUnit] = [
            ComputeUnit(self.env, config, i) for i in range(config.num_cus)
        ]
        self.dispatcher = Dispatcher(self)
        self.cp = CommandProcessor(self)
        self.hierarchy.atomic_observer = self.syncmon.on_atomic
        self.syncmon.tracer = self.tracer
        self.syncmon.resume_hook = self.dispatcher.notify_met
        self.wgs: List[WorkGroup] = []
        self.launches: List[KernelLaunch] = []
        self.progress_count = 0
        self.advancement_count = 0
        self._finished = 0
        self.resource_loss_applied = False
        self._completion_holds = 0
        self.fault_injector: Optional[FaultInjector] = None
        if config.fault_plan is not None and not config.fault_plan.is_noop:
            self.fault_injector = FaultInjector(self, config.fault_plan)
        self.sanitizer = None
        if config.sanitize:
            from repro.analysis.sanitizer import SyncSanitizer  # cycle

            self.sanitizer = SyncSanitizer(self)
            self.hierarchy.sanitizer = self.sanitizer
        self._update_halted()

    @property
    def state_trace(self) -> List[tuple]:
        """(cycle, wg_id, WGState) transitions, derived from the tracer's
        ``wg`` span stream (the single source of truth); [] with tracing
        off or the ``wg`` category filtered out."""
        if self.tracer is None:
            return []
        return [
            (cycle, wg_id, WGState(name))
            for cycle, wg_id, name in self.tracer.wg_transitions()
        ]

    # ------------------------------------------------------------------
    # memory helpers for workloads
    # ------------------------------------------------------------------
    def malloc(self, nbytes: int, align: int = 4) -> int:
        return self.store.alloc(nbytes, align)

    def alloc_sync_vars(self, count: int) -> List[int]:
        """Allocate ``count`` synchronization variables, one per cache
        line (64 B padding, as the paper's benchmarks do)."""
        stride = self.config.block_bytes
        base = self.store.alloc(count * stride, align=stride)
        return [base + i * stride for i in range(count)]

    # ------------------------------------------------------------------
    # kernel launch
    # ------------------------------------------------------------------
    def launch(self, kernel: Kernel) -> KernelLaunch:
        """Create the kernel's WGs and hand them to the dispatcher.

        The dispatcher assigns unique WG IDs (§V.B: "the dispatcher is
        responsible for assigning a unique ID to each dispatched WG")."""
        ids = []
        for grid_index in range(kernel.grid_wgs):
            wg_id = len(self.wgs)
            wg = WorkGroup(self, kernel, wg_id, grid_index=grid_index)
            self.wgs.append(wg)
            self.dispatcher.add(wg)
            ids.append(wg_id)
        launch = KernelLaunch(kernel=kernel, wg_ids=ids, launched_at=self.env.now)
        self.launches.append(launch)
        self._update_halted()
        return launch

    # ------------------------------------------------------------------
    # progress and completion
    # ------------------------------------------------------------------
    def note_progress(self, tag: str = "progress") -> None:
        """Semantic advancement: a condition met, a WG resumed or done.
        Feeds both the deadlock watchdog and the livelock detector —
        instruction execution alone (:meth:`note_execution`) does not
        count as advancement."""
        self.progress_count += 1
        self.advancement_count += 1
        self.stats.counter(f"progress.{tag}").incr()

    def note_execution(self) -> None:
        """Lightweight watchdog feed: executing instructions *is* forward
        progress (a busy-wait spin loop executes none — it only retries
        atomics — so deadlock detection is unaffected)."""
        self.progress_count += 1

    def wg_done(self, wg: WorkGroup) -> None:
        wg.set_state(WGState.DONE)
        if wg.cu is not None:
            wg.cu.release(wg)
            wg.cu = None
        self._finished += 1
        self._update_halted()
        self.note_progress("wg_done")
        self.dispatcher.kick()

    def hold_completion(self) -> None:
        """Keep :meth:`run` going even with no launched WGs outstanding
        (used by deferred launches, e.g. cooperative groups)."""
        self._completion_holds += 1
        self._update_halted()

    def release_completion(self) -> None:
        self._completion_holds -= 1
        self._update_halted()

    def _update_halted(self) -> None:
        """Set the engine's ``halted`` flag iff nothing is outstanding: no
        launched WG unfinished, no completion hold. Called wherever an
        input changes (a launch, a WG done, a hold taken or released), so
        the run loop reads a flag instead of calling a predicate per
        timestamp. Deferred launches (cooperative groups) add WGs while
        holding completion, so the flag never rises between the two."""
        self.env.halted = (self._finished >= len(self.wgs)
                           and self._completion_holds <= 0)

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        cfg = self.config
        env = self.env
        last_progress = -1
        last_advance = -1
        stagnant_windows = 0
        next_check = cfg.deadlock_window
        reason = "completed"
        deadlocked = False

        while not env.halted:
            if env.now >= cfg.max_cycles:
                reason = "max_cycles"
                deadlocked = True
                break
            if env.now >= next_check:
                if self.progress_count == last_progress:
                    # No events of any kind: classic deadlock.
                    reason = "watchdog"
                    deadlocked = True
                    break
                if self.advancement_count == last_advance:
                    # Instructions retire but no condition ever advances:
                    # livelock (e.g. polling loops burning ALU cycles).
                    # Requires several consecutive stagnant windows so a
                    # long fault-free compute phase is not misdiagnosed.
                    stagnant_windows += 1
                    if stagnant_windows >= LIVELOCK_WINDOWS:
                        reason = "livelock"
                        deadlocked = True
                        break
                else:
                    stagnant_windows = 0
                last_progress = self.progress_count
                last_advance = self.advancement_count
                next_check = env.now + cfg.deadlock_window
            # Hot path: fire whole same-timestamp batches up to the next
            # watchdog/cycle-budget boundary, re-checking the completion
            # flag (see _update_halted) only between timestamps.
            # Equivalent to the old per-event step() loop (a mid-batch
            # completion used to exit here and finish the batch in the
            # same-cycle drain below), without per-event Python dispatch
            # in between.
            boundary = cfg.max_cycles if cfg.max_cycles < next_check else next_check
            env.drain_batches(boundary)
            if env.halted:
                break
            # The next event (if any) is at or past the boundary. The old
            # loop fired exactly one such event before its checks could
            # notice the crossing; preserve that knife-edge.
            if not env.step():
                reason = "no_events"
                deadlocked = True
                break

        if not deadlocked:
            # Fire whatever is still queued at the final cycle, e.g. work
            # the last WG's completion queued. drain_batches already
            # finishes a whole timestamp, lane included, so this catches
            # only entries queued at `now` outside it (by env.step()).
            env.run(until=env.now)

        if self.tracer is not None:
            if deadlocked:
                self.tracer.instant(
                    "wg", f"watchdog:{reason}", track="watchdog",
                    finished=self._finished, total=len(self.wgs),
                )
            # Scheduler health counters (engine.* in Perfetto): sampled
            # once at end of run from counters the engine maintains
            # anyway, so recording them never perturbs the simulation.
            for metric, value in env.metrics().items():
                self.tracer.counter("engine", f"engine.{metric}", value)
            self.tracer.finish()

        diagnosis: Optional[Dict[str, Any]] = None
        if deadlocked:
            diagnosis = {
                "kind": classify_stagnation(reason != "livelock"),
                "reason": reason,
                "cycle": env.now,
                "policy": self.policy.name,
                "finished": self._finished,
                "total": len(self.wgs),
                "stalls": build_stall_report(self),
            }
        return self._outcome(not deadlocked and env.halted,
                             deadlocked, reason, diagnosis)

    def _outcome(
        self,
        completed: bool,
        deadlocked: bool,
        reason: str,
        diagnosis: Optional[Dict[str, Any]] = None,
    ) -> RunResult:
        running = 0
        waiting = 0
        switches = 0
        for wg in self.wgs:
            wg.set_state(wg.state)  # flush accounting to 'now'
            running += wg.cycles_by_bucket["running"]
            waiting += wg.cycles_by_bucket["waiting"]
            switches += wg.context_switches
        snap = self.stats.snapshot()
        snap.update(self.syncmon.snapshot())
        # hierarchy.* and log.appends repeat counts kept once elsewhere;
        # a device counter is registered on first use, so it may be absent
        for kind in ("atomics", "loads", "stores"):
            snap[f"hierarchy.{kind}"] = snap.get(f"device.{kind}", 0.0)
        snap["l2.hit_rate"] = self.hierarchy.l2.stats.hit_rate
        snap["log.appends"] = snap["syncmon.spills"]
        snap["log.peak"] = float(self.monitor_log.peak_occupancy)
        snap["cp.spilled_resumes"] = float(self.cp.spilled_resumes)
        # derived metrics the table/figure modules read, so a result
        # stands alone (picklable across the process pool, serializable
        # into the result cache) without the GPU object
        for key, nbytes in self.cp.datastructure_bytes().items():
            snap[f"cp.ds.{key}"] = float(nbytes)
        snap["cp.arena.peak_bytes"] = float(self.cp.arena.peak_bytes)
        for key, value in self.syncmon.characterization().items():
            snap[f"char.{key}"] = float(value)
        return RunResult(
            benchmark="+".join(launch.kernel.name for launch in self.launches),
            policy=self.policy.name,
            cycles=self.env.now,
            completed=completed,
            deadlocked=deadlocked,
            reason=reason,
            context_switches=switches,
            wg_running_cycles=running,
            wg_waiting_cycles=waiting,
            stats=snap,
            diagnosis=diagnosis,
        )
