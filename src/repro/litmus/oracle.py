"""The litmus oracle: run programs on the simulator, judge the models.

For each (program, policy) pair the oracle builds the program's kernel
on a small two-CU machine, schedules the program's resource-loss
window through the standard preemption machinery, runs it under the
standard engine and watchdog, reconstructs an
:class:`~repro.litmus.models.ObservedSchedule` from a host-side
observer plus final shared memory, and classifies the schedule against
all three progress models.

The observer is pure host-side bookkeeping (plain dict/list mutation
from inside the kernel generator, no simulated events), so observation
cannot perturb timing: an observed run is bit-identical to an
unobserved one.

Contract enforcement cross-checks the *dynamic* verdicts against the
*static* expectations from :func:`repro.litmus.models.expected_cell`
(which reuses :mod:`repro.analysis.specs`): a cell the spec calls
``MUST_COMPLETE`` that nevertheless hangs is a violation — the same
soundness direction the analyzer's 96-cell table guarantees, applied
to generated programs. ``MAY_DEADLOCK`` cells may go either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.specs import MUST_COMPLETE, table_policies
from repro.core.policies import (
    PolicySpec,
    awg,
    baseline,
    monnr_one,
    timeout,
)
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU, RunResult
from repro.gpu.kernel import Kernel, ResourceProfile
from repro.gpu.preemption import ResourceLossEvent, ResourceRestoreEvent
from repro.litmus.generate import (
    ACQUIRE,
    ADD,
    IF_FLAG,
    LitmusProgram,
    NUM_CUS,
    RELEASE,
    SET,
    WAIT,
    WAITC,
    WORK,
)
from repro.litmus.models import (
    IFP,
    Judgment,
    MODELS,
    OBE,
    ObservedSchedule,
    SATISFIED,
    VIOLATED,
    expected_cell,
    judge_all,
)

#: report schema version (golden litmus files embed it)
REPORT_VERSION = 1

#: the policy subset the committed golden corpus pins: the non-IFP
#: baseline, the timer-only design, the most wake-loss-prone monitor
#: design (resume one, non-fused), and the paper's headline AWG policy.
#: ``litmus run`` without ``--quick`` widens to all 8 table policies.
def golden_policies() -> List[PolicySpec]:
    return [baseline(), timeout(20_000), monnr_one(), awg()]


def litmus_config(program: LitmusProgram, seed: int) -> GPUConfig:
    """The litmus machine: two CUs, occupancy from the program, and a
    watchdog window comfortably above every recovery timer (the 100k
    backstop must get its chance before deadlock is declared)."""
    return GPUConfig(
        num_cus=NUM_CUS,
        max_wgs_per_cu=program.wgs_per_cu,
        deadlock_window=150_000,
        max_cycles=10_000_000,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the host-side observer + kernel builder
# ---------------------------------------------------------------------------

class LitmusObserver:
    """Host-side schedule recorder; mutated from kernel generators with
    zero simulated cost."""

    def __init__(self, wgs: int) -> None:
        self.wgs = wgs
        self.started: set = set()
        self.completed: set = set()
        #: completed top-level actions per WG (the resume pc)
        self.steps = [0] * wgs
        #: wg -> (pc, opcode) while blocked inside a blessed wait
        self.in_wait: Dict[int, Tuple[int, str]] = {}
        self.waits_executed = 0


@dataclass
class LitmusLayout:
    """Shared-variable placement: one cache line per variable."""

    flag_addrs: List[int]
    counter_addrs: List[int]
    lock_addrs: List[int]


def allocate_layout(program: LitmusProgram, gpu: GPU) -> LitmusLayout:
    count = program.flags + program.counters + program.mutexes
    addrs = gpu.alloc_sync_vars(count) if count else []
    f, c = program.flags, program.counters
    return LitmusLayout(
        flag_addrs=addrs[:f],
        counter_addrs=addrs[f:f + c],
        lock_addrs=addrs[f + c:],
    )


def build_litmus_kernel(
    program: LitmusProgram,
    gpu: GPU,
    observer: Optional[LitmusObserver] = None,
) -> Kernel:
    """Instantiate the program as a kernel on ``gpu``; the observer (one
    per run) records the schedule the models judge."""
    observer = observer if observer is not None else LitmusObserver(program.wgs)
    layout = allocate_layout(program, gpu)

    def run_actions(ctx, w, actions, top):
        for action in actions:
            op = action[0]
            if op == WORK:
                yield from ctx.compute(action[1])
            elif op == SET:
                yield from ctx.atomic_store(
                    layout.flag_addrs[action[1]], action[2])
                ctx.progress("litmus-set")
            elif op == ADD:
                yield from ctx.atomic_add(
                    layout.counter_addrs[action[1]], action[2])
                ctx.progress("litmus-add")
            elif op == WAIT:
                observer.in_wait[w] = (observer.steps[w], op)
                observer.waits_executed += 1
                yield from ctx.wait_for_value(
                    layout.flag_addrs[action[1]], action[2])
                del observer.in_wait[w]
            elif op == WAITC:
                target = action[2]
                observer.in_wait[w] = (observer.steps[w], op)
                observer.waits_executed += 1
                yield from ctx.wait_for_value(
                    layout.counter_addrs[action[1]], target,
                    satisfied=lambda v, t=target: v >= t)
                del observer.in_wait[w]
            elif op == ACQUIRE:
                observer.in_wait[w] = (observer.steps[w], op)
                observer.waits_executed += 1
                yield from ctx.acquire_test_and_set(
                    layout.lock_addrs[action[1]])
                del observer.in_wait[w]
            elif op == RELEASE:
                yield from ctx.atomic_exch(layout.lock_addrs[action[1]], 0)
                ctx.progress("litmus-release")
            elif op == IF_FLAG:
                value = yield from ctx.atomic_load(
                    layout.flag_addrs[action[1]])
                if value == action[2]:
                    yield from run_actions(ctx, w, action[3], top=False)
            if top:
                observer.steps[w] += 1

    def body(ctx):
        w = ctx.grid_index
        observer.started.add(w)
        yield from run_actions(ctx, w, program.scripts[w], top=True)
        observer.completed.add(w)

    return Kernel(
        name=program.label,
        body=body,
        grid_wgs=program.wgs,
        resources=ResourceProfile(vgprs_per_wi=8, sgprs_per_wavefront=64),
        args={"litmus_observer": observer, "litmus_layout": layout,
              "program": program.spec()},
    )


# ---------------------------------------------------------------------------
# running + judging
# ---------------------------------------------------------------------------

@dataclass
class LitmusRun:
    """One (program, policy) execution with its judged schedule."""

    program: LitmusProgram
    policy: str
    outcome: RunResult
    schedule: ObservedSchedule
    judgments: Dict[str, Judgment]
    expected: str
    expected_reasons: Tuple[str, ...] = ()

    @property
    def contract_violation(self) -> Optional[str]:
        """The soundness direction: MUST_COMPLETE cells must complete."""
        if self.expected == MUST_COMPLETE and not self.outcome.ok:
            return (f"{self.program.label}/{self.policy}: spec says "
                    f"MUST_COMPLETE but the run hung "
                    f"({self.outcome.reason})")
        return None


def run_litmus(program: LitmusProgram, policy: PolicySpec,
               seed: int = 1) -> LitmusRun:
    """Run one program under one policy and judge all models."""
    gpu = GPU(litmus_config(program, seed), policy)
    observer = LitmusObserver(program.wgs)
    kernel = build_litmus_kernel(program, gpu, observer)
    layout = kernel.args["litmus_layout"]
    gpu.launch(kernel)
    if program.loss_at_us is not None:
        ResourceLossEvent(at_us=program.loss_at_us,
                          cu_id=NUM_CUS - 1).schedule(gpu)
    if program.restore_at_us is not None:
        ResourceRestoreEvent(at_us=program.restore_at_us,
                             cu_id=NUM_CUS - 1).schedule(gpu)
    outcome = gpu.run()
    schedule = _reconstruct(program, gpu, layout, observer, outcome)
    judgments = judge_all(program, schedule)
    cell = expected_cell(program, policy)
    return LitmusRun(
        program=program,
        policy=policy.name,
        outcome=outcome,
        schedule=schedule,
        judgments=judgments,
        expected=cell.verdict,
        expected_reasons=cell.reasons,
    )


def _reconstruct(program: LitmusProgram, gpu: GPU,
                 layout: LitmusLayout,
                 observer: LitmusObserver,
                 outcome: RunResult) -> ObservedSchedule:
    """Assemble the judged schedule from observer + final memory."""
    return ObservedSchedule(
        wgs=program.wgs,
        started=frozenset(observer.started),
        completed=frozenset(observer.completed),
        pcs=tuple(observer.steps),
        waits_executed=observer.waits_executed,
        terminated=outcome.ok,
        flags=tuple(gpu.store.read(a) for a in layout.flag_addrs),
        counters=tuple(gpu.store.read(a) for a in layout.counter_addrs),
        locks=tuple(gpu.store.read(a) for a in layout.lock_addrs),
    )


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

@dataclass
class LitmusReport:
    """Every verdict of one oracle pass, JSON- and table-renderable."""

    seed: int
    policies: List[str]
    runs: List[LitmusRun] = field(default_factory=list)

    @property
    def contract_violations(self) -> List[str]:
        return [v for run in self.runs
                for v in ([run.contract_violation]
                          if run.contract_violation else [])]

    def violating_runs(self) -> List[LitmusRun]:
        return [run for run in self.runs if run.contract_violation]

    def models_distinguishable(self) -> bool:
        """The acceptance property: some program's observed schedules
        violate OBE on one policy while satisfying IFP (non-vacuously)
        on another — the models are ordered, not coincident."""
        obe_violated = {run.program.name for run in self.runs
                        if run.judgments[OBE].verdict == VIOLATED}
        ifp_satisfied = {run.program.name for run in self.runs
                         if run.judgments[IFP].verdict == SATISFIED}
        return bool(obe_violated & ifp_satisfied)

    @property
    def ok(self) -> bool:
        return not self.contract_violations

    def to_dict(self) -> Dict[str, Any]:
        by_program: Dict[str, Dict[str, Any]] = {}
        for run in self.runs:
            entry = by_program.setdefault(run.program.name, {
                "name": run.program.name,
                "alias": run.program.alias,
                "spec": run.program.spec(),
                "cells": {},
            })
            entry["cells"][run.policy] = {
                "completed": run.outcome.completed,
                "deadlocked": run.outcome.deadlocked,
                "cycles": run.outcome.cycles,
                "expected": run.expected,
                "verdicts": {m: j.verdict
                             for m, j in run.judgments.items()},
            }
        return {
            "version": REPORT_VERSION,
            "seed": self.seed,
            "policies": list(self.policies),
            "models": [m.name for m in MODELS],
            "programs": [by_program[k] for k in sorted(by_program)],
            "summary": {
                "runs": len(self.runs),
                "contract_violations": self.contract_violations,
                "models_distinguishable": self.models_distinguishable(),
            },
        }

    def render(self) -> str:
        width = max((len(r.program.label) for r in self.runs), default=10)
        lines = []
        header = (f"{'program'.ljust(width)}  {'policy'.ljust(12)} "
                  f"{'outcome'.ljust(9)} {'expect'.ljust(6)} "
                  "OBE/Linear/IFP")
        lines.append(header)
        for run in self.runs:
            verdict = "/".join(
                {SATISFIED: "sat", VIOLATED: "VIOL", "vacuous": "vac"}
                [run.judgments[m.name].verdict] for m in MODELS)
            outcome = "ok" if run.outcome.ok else "HANG"
            expect = "must" if run.expected == MUST_COMPLETE else "may-dl"
            lines.append(
                f"{run.program.label.ljust(width)}  "
                f"{run.policy.ljust(12)} {outcome.ljust(9)} "
                f"{expect.ljust(6)} {verdict}")
        lines.append("")
        lines.append(
            f"{len(self.runs)} run(s), "
            f"{len(self.contract_violations)} contract violation(s), "
            f"models distinguishable: "
            f"{'yes' if self.models_distinguishable() else 'NO'}")
        for violation in self.contract_violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def run_corpus(
    programs: Sequence[LitmusProgram],
    policies: Optional[Sequence[PolicySpec]] = None,
    seed: int = 1,
) -> LitmusReport:
    """The oracle pass: every program under every policy."""
    policies = list(policies) if policies is not None else table_policies()
    report = LitmusReport(seed=seed, policies=[p.name for p in policies])
    for program in programs:
        for policy in policies:
            report.runs.append(run_litmus(program, policy, seed=seed))
    return report
