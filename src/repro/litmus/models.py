"""Executable progress models: OBE, linear occupancy-bound, and IFP.

Following "Specifying and Testing GPU Workgroup Progress Models"
(Sorensen et al., arXiv:2109.06132), a progress model is a *fairness
obligation*: the set of WGs the scheduler must eventually keep
scheduling. A model forms a predicate over an *observed schedule* (one
finished or deadlocked simulation run):

- **OBE** (HSA occupancy-bound execution): every WG that ever became
  occupant (started executing) receives eventual fairness; WGs that
  never started may be postponed forever.
- **Linear** occupancy-bound: OBE plus in-order dispatch — once WG *i*
  has started, every WG with a smaller id is also guaranteed (the
  occupancy frontier only grows in id order).
- **IFP** (this paper's guarantee): *every* WG of the grid receives
  eventual fairness, occupant or not.

The lattice is ``OBE ⊑ Linear ⊑ IFP`` — fair sets only grow — so any
schedule that violates a weaker model violates every stronger one.

Judging is executable, not axiomatic: replay the program's scripts
from the observed deadlock state in the reference interpreter
(:func:`repro.litmus.generate.interpret`), restricted to the model's
fair set. If mandatory fairness alone forces every WG to terminate,
the observed hang *violated* the model; if some WG stays blocked even
then (its satisfier lies outside the fair set, or no satisfier exists
at all), the hang is *allowed* and the model is satisfied. Runs that
complete satisfy every model — *vacuously* if they never exercised a
single blessed wait.

The static side reuses :mod:`repro.analysis.specs` verbatim:
:func:`expected_cell` builds a :class:`~repro.analysis.specs.WaitProfile`
per litmus wait site and asks :func:`~repro.analysis.specs.cell_verdict`
for the policy's MUST_COMPLETE / MAY_DEADLOCK claim, layering the same
three progress arguments the analyzer applies to the shipped
benchmarks — so the litmus oracle and the 96-cell static table cannot
silently drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.analysis.specs import (
    MAY_DEADLOCK,
    MUST_COMPLETE,
    WaitProfile,
    cell_verdict,
)
from repro.core.policies import PolicySpec
from repro.litmus.generate import (
    ACQUIRE,
    InterpState,
    LitmusProgram,
    WAIT,
    WAITC,
    WAIT_OPS,
    interpret,
)

# -- verdict vocabulary -------------------------------------------------------

SATISFIED = "satisfied"
VIOLATED = "violated"
VACUOUS = "vacuous"

#: the three models, weakest first (fair sets only grow along this order)
OBE = "OBE"
LINEAR = "Linear"
IFP = "IFP"

MODEL_ORDER: Dict[str, int] = {OBE: 0, LINEAR: 1, IFP: 2}


def weaker_or_equal(a: str, b: str) -> bool:
    """``a ⊑ b`` in the model lattice."""
    return MODEL_ORDER[a] <= MODEL_ORDER[b]


# -- observed schedules -------------------------------------------------------

@dataclass(frozen=True)
class ObservedSchedule:
    """What one simulation run exposed to the models.

    ``pcs`` are per-WG top-level action indices at the end of the run
    (``len(script)`` = completed); ``flags``/``counters``/``locks`` are
    the final shared-memory values, which together with the pcs form
    the exact resume state for judge-by-fair-replay."""

    wgs: int
    started: FrozenSet[int]
    completed: FrozenSet[int]
    pcs: Tuple[int, ...]
    waits_executed: int
    terminated: bool
    flags: Tuple[int, ...] = ()
    counters: Tuple[int, ...] = ()
    locks: Tuple[int, ...] = ()

    def resume_state(self) -> InterpState:
        return InterpState(
            pcs=list(self.pcs),
            flags=list(self.flags),
            counters=list(self.counters),
            locks=list(self.locks),
        )


@dataclass(frozen=True)
class Judgment:
    """One (model, schedule) verdict with its progress argument."""

    model: str
    verdict: str
    reasons: Tuple[str, ...] = ()


# -- the models ---------------------------------------------------------------

@dataclass(frozen=True)
class ProgressModel:
    """A fairness obligation, made executable (see module docstring)."""

    name: str

    def fair_set(self, schedule: ObservedSchedule) -> FrozenSet[int]:
        """The WGs this model obliges the scheduler to keep serving."""
        if self.name == IFP:
            return frozenset(range(schedule.wgs))
        if self.name == LINEAR:
            if not schedule.started:
                return frozenset()
            frontier = max(schedule.started)
            return schedule.started | frozenset(range(frontier))
        return schedule.started  # OBE

    def judge(self, program: LitmusProgram,
              schedule: ObservedSchedule) -> Judgment:
        """Classify one observed schedule against this model."""
        if schedule.terminated:
            if schedule.waits_executed == 0:
                return Judgment(self.name, VACUOUS, (
                    "run completed without ever entering a blessed wait — "
                    "the progress obligation was never exercised",))
            return Judgment(self.name, SATISFIED, (
                f"run completed; {schedule.waits_executed} wait(s) "
                "exercised and satisfied",))

        fair = self.fair_set(schedule)
        replay = interpret(program, fair=set(fair),
                           start=schedule.resume_state())
        if replay.terminated:
            stuck = sorted(set(range(program.wgs)) - schedule.completed)
            return Judgment(self.name, VIOLATED, (
                f"{self.name} fairness over WGs {sorted(fair)} alone "
                f"forces termination (fair replay completes all "
                f"{program.wgs} WGs), yet the run hung with WGs "
                f"{stuck} unfinished — the scheduler withheld mandatory "
                "progress",))
        stuck = sorted(set(range(program.wgs)) - replay.completed)
        detail = "; ".join(
            f"wg{w} stuck at {replay.blocked[w][0]}" if w in replay.blocked
            else f"wg{w} outside the fair set"
            for w in stuck)
        if schedule.waits_executed == 0:
            return Judgment(self.name, VACUOUS, (
                f"hang is allowed under {self.name} ({detail}), but no "
                "blessed wait was ever exercised",))
        return Judgment(self.name, SATISFIED, (
            f"hang is allowed under {self.name}: even with fairness over "
            f"WGs {sorted(fair)}, {detail}",))


#: the registered models, weakest first
MODELS: Tuple[ProgressModel, ...] = (
    ProgressModel(OBE),
    ProgressModel(LINEAR),
    ProgressModel(IFP),
)


def judge_all(program: LitmusProgram,
              schedule: ObservedSchedule) -> Dict[str, Judgment]:
    return {m.name: m.judge(program, schedule) for m in MODELS}


def claimed_model(policy: PolicySpec) -> str:
    """The strongest model a policy claims on fault-free runs: IFP for
    the paper's context-switching policies, OBE for occupancy-bound
    ones. (Under a resource-loss window an occupancy-bound policy
    claims nothing — eviction revokes occupancy, see
    :func:`expected_cell`.)"""
    return IFP if policy.provides_ifp else OBE


# -- static expectations (repro.analysis.specs reuse) --------------------------

def wait_profiles(program: LitmusProgram) -> List[WaitProfile]:
    """One :class:`~repro.analysis.specs.WaitProfile` per wait site.

    Every litmus wait lowers through ``ctx.sync_wait`` (blessed,
    policy-lowered, un-fused); counter waits are monotonic ``>=``
    threshold waits, flag/mutex waits are exact re-checks. Writers are
    by construction part of the same program, so sites are
    ``matched``."""
    profiles: List[WaitProfile] = []
    for w, script in enumerate(program.scripts):
        for i, action in enumerate(script):
            if action[0] not in WAIT_OPS:
                continue
            waiters = _waiter_count(program, action)
            profiles.append(WaitProfile(
                label=f"wg{w}[{i}]:{action[0]}",
                kind="blocking-wait",
                fused=False,
                monotonic=action[0] == WAITC,
                single_waiter=waiters <= 1,
                matched=True,
            ))
    return profiles


def _waiter_count(program: LitmusProgram, action) -> int:
    """How many scripts wait on the same variable (resume-one hazard)."""
    count = 0
    for script in program.scripts:
        for other in script:
            if other[0] not in WAIT_OPS:
                continue
            if other[0] in (WAIT, WAITC) and action[0] in (WAIT, WAITC):
                same_space = (other[0] == WAITC) == (action[0] == WAITC)
                if same_space and other[1] == action[1]:
                    count += 1
            elif other[0] == ACQUIRE and action[0] == ACQUIRE \
                    and other[1] == action[1]:
                count += 1
    return count


@dataclass(frozen=True)
class ExpectedCell:
    """The static claim for one (program, policy) pair."""

    verdict: str
    reasons: Tuple[str, ...] = ()


def expected_cell(program: LitmusProgram,
                  policy: PolicySpec) -> ExpectedCell:
    """What :mod:`repro.analysis.specs` predicts for this cell.

    Layering mirrors the analyzer: a program that hangs even under the
    reference fair schedule may deadlock everywhere (program bug, not a
    scheduling failure); an occupancy-bound policy additionally claims
    nothing under resource loss or oversubscription; otherwise the
    per-site ``cell_verdict`` argument (wake-loss modes vs covering
    timers) decides."""
    ideal = interpret(program)
    if not ideal.terminated:
        stuck = sorted(ideal.blocked)
        return ExpectedCell(MAY_DEADLOCK, (
            f"program logically deadlocks under the reference fair "
            f"schedule (WGs {stuck} blocked) — no scheduler can save it",))
    profiles = wait_profiles(program)
    if not policy.provides_ifp:
        if program.loss_at_us is not None:
            return ExpectedCell(MAY_DEADLOCK, (
                f"{policy.name} cannot restore WGs evicted by the "
                f"resource-loss window at {program.loss_at_us}us — "
                "occupancy, once revoked, never returns",))
        if program.oversubscribed and profiles:
            cell = cell_verdict(program.name, policy, profiles)
            return ExpectedCell(MAY_DEADLOCK, tuple(cell.reasons))
        return ExpectedCell(MUST_COMPLETE, (
            f"no resource loss and no wait can span the occupancy "
            f"boundary ({program.wgs} WGs, occupancy "
            f"{program.occupancy}): resident WGs retire and recycle "
            "their slots",))
    if not profiles:
        return ExpectedCell(MUST_COMPLETE, (
            "no reachable wait sites: straight-line scripts retire and "
            "free their slots under any policy",))
    cell = cell_verdict(program.name, policy, profiles)
    return ExpectedCell(cell.verdict, tuple(cell.reasons))
