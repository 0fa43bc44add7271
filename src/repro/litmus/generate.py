"""Litmus programs: a tiny synchronization DSL plus generators.

A litmus program is a handful of work-groups, each running a short
straight-line *script* of synchronization actions against shared flags,
counters and test-and-set mutexes, on a deliberately small two-CU
machine whose occupancy (and optional mid-run resource-loss window) is
part of the program. The action vocabulary is restricted so that
program outcomes are *schedule-independent under fairness*:

- flags are write-once (``set`` may target each flag at most once
  across all scripts), and waits on them are satisfied-forever;
- counters only grow (``add`` amounts are positive) and counter waits
  are ``>=`` threshold waits;
- critical sections are wait-free: between ``acquire`` and ``release``
  a script may only ``work``/``set``/``add``, and never holds more
  than one mutex — so a mutex, once acquired, is always released after
  finitely many non-blocking steps;
- ``if_flag`` (the vacuity fixture) may only guard on a nonzero value
  of a flag *no script ever sets*; flags start at 0, so the branch is
  deterministically never taken.

Under those rules "does the program terminate when every WG is
scheduled fairly?" has a single schedule-independent answer, computed
by :func:`interpret` — a host-side reference interpreter that is also
the executable core of the progress models in
:mod:`repro.litmus.models` (judge-by-fair-replay).

Canonical form + content addressing: :func:`canonicalize` renumbers
shared variables in first-use order, drops unused variables and clamps
``work`` durations to a fixed grid; :func:`program_name` hashes the
canonical spec (``lit-<sha256[:10]>``), so structurally identical
programs collide to one name regardless of how they were generated.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError

#: canonical spec schema version (baked into the content hash)
SPEC_VERSION = 1

#: the litmus machine: two CUs so a resource-loss window (CU 1 goes
#: away) always leaves one CU running — occupancy is 2 * wgs_per_cu
NUM_CUS = 2

#: work-duration grid for the canonical form
WORK_STEP = 50
WORK_MIN = 50
WORK_MAX = 5_000

# action opcodes
WORK = "work"          # ("work", cycles)
SET = "set"            # ("set", flag, value)        write-once flag store
WAIT = "wait"          # ("wait", flag, value)       wait until flag == value
ADD = "add"            # ("add", counter, amount)    monotone atomic add
WAITC = "waitc"        # ("waitc", counter, target)  wait until counter >= target
ACQUIRE = "acquire"    # ("acquire", mutex)          test-and-set acquire
RELEASE = "release"    # ("release", mutex)
IF_FLAG = "if_flag"    # ("if_flag", flag, value, (sub-actions...))

#: opcodes that enter a blessed wait (block until a condition holds)
WAIT_OPS = (WAIT, WAITC, ACQUIRE)

Action = Tuple
Script = Tuple[Action, ...]


@dataclass(frozen=True)
class LitmusProgram:
    """One litmus program (see module docstring for the action rules)."""

    wgs: int
    scripts: Tuple[Script, ...]
    flags: int = 0
    counters: int = 0
    mutexes: int = 0
    #: resident WGs per CU; occupancy = NUM_CUS * wgs_per_cu
    wgs_per_cu: int = 2
    #: CU 1 is disabled (its WGs evicted) at this simulated time
    loss_at_us: Optional[float] = None
    #: CU 1 comes back at this time (requires loss_at_us)
    restore_at_us: Optional[float] = None
    #: human-readable corpus name (not part of the canonical identity)
    alias: Optional[str] = None

    @property
    def occupancy(self) -> int:
        return NUM_CUS * self.wgs_per_cu

    @property
    def oversubscribed(self) -> bool:
        return self.wgs > self.occupancy

    @property
    def name(self) -> str:
        return program_name(self)

    @property
    def label(self) -> str:
        return self.alias or self.name

    def spec(self) -> Dict[str, Any]:
        """Canonical-identity JSON spec (alias rides along, unhashed)."""
        out = {
            "version": SPEC_VERSION,
            "wgs": self.wgs,
            "wgs_per_cu": self.wgs_per_cu,
            "flags": self.flags,
            "counters": self.counters,
            "mutexes": self.mutexes,
            "loss_at_us": self.loss_at_us,
            "restore_at_us": self.restore_at_us,
            "scripts": [[_action_to_json(a) for a in script]
                        for script in self.scripts],
        }
        if self.alias:
            out["alias"] = self.alias
        return out

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "LitmusProgram":
        if spec.get("version") != SPEC_VERSION:
            raise ConfigError(
                f"litmus spec version {spec.get('version')!r} not supported "
                f"(this build reads version {SPEC_VERSION})")
        program = cls(
            wgs=int(spec["wgs"]),
            scripts=tuple(tuple(_action_from_json(a) for a in script)
                          for script in spec["scripts"]),
            flags=int(spec.get("flags", 0)),
            counters=int(spec.get("counters", 0)),
            mutexes=int(spec.get("mutexes", 0)),
            wgs_per_cu=int(spec.get("wgs_per_cu", 2)),
            loss_at_us=spec.get("loss_at_us"),
            restore_at_us=spec.get("restore_at_us"),
            alias=spec.get("alias"),
        )
        validate_program(program)
        return program


def _action_to_json(action: Action) -> List[Any]:
    if action[0] == IF_FLAG:
        return [IF_FLAG, action[1], action[2],
                [_action_to_json(a) for a in action[3]]]
    return list(action)


def _action_from_json(raw: Sequence[Any]) -> Action:
    if raw[0] == IF_FLAG:
        return (IF_FLAG, int(raw[1]), int(raw[2]),
                tuple(_action_from_json(a) for a in raw[3]))
    return (raw[0],) + tuple(int(v) for v in raw[1:])


# ---------------------------------------------------------------------------
# validation (the well-formedness rules that make outcomes
# schedule-independent under fairness)
# ---------------------------------------------------------------------------

def validate_program(program: LitmusProgram) -> None:
    """Raise :class:`ConfigError` unless the program is well-formed."""
    if program.wgs < 1:
        raise ConfigError("litmus program needs at least one WG")
    if len(program.scripts) != program.wgs:
        raise ConfigError(
            f"{program.wgs} WGs but {len(program.scripts)} scripts")
    if program.wgs_per_cu < 1:
        raise ConfigError("wgs_per_cu must be >= 1")
    if program.restore_at_us is not None:
        if program.loss_at_us is None:
            raise ConfigError("restore_at_us requires loss_at_us")
        if program.restore_at_us <= program.loss_at_us:
            raise ConfigError("restore_at_us must come after loss_at_us")
    if program.loss_at_us is not None and program.loss_at_us <= 0:
        raise ConfigError("loss_at_us must be positive")

    set_flags: Set[int] = set()
    for w, script in enumerate(program.scripts):
        held: Optional[int] = None
        for action in script:
            op = action[0]
            if op == WORK:
                if action[1] < 1:
                    raise ConfigError(f"wg{w}: work cycles must be >= 1")
            elif op == SET:
                _, flag, value = action
                _check_index(w, "flag", flag, program.flags)
                if value < 1:
                    raise ConfigError(f"wg{w}: set value must be >= 1")
                if flag in set_flags:
                    raise ConfigError(
                        f"wg{w}: flag {flag} written twice — flags are "
                        "write-once so waits stay satisfied-forever")
                set_flags.add(flag)
            elif op == WAIT:
                _, flag, value = action
                _check_index(w, "flag", flag, program.flags)
                if value < 1:
                    raise ConfigError(
                        f"wg{w}: waiting for the initial flag value 0 is "
                        "always immediately satisfied")
                if held is not None:
                    raise ConfigError(
                        f"wg{w}: wait inside a critical section — critical "
                        "sections must be wait-free")
            elif op == ADD:
                _, counter, amount = action
                _check_index(w, "counter", counter, program.counters)
                if amount < 1:
                    raise ConfigError(
                        f"wg{w}: add amount must be positive (counters "
                        "are monotone)")
            elif op == WAITC:
                _, counter, target = action
                _check_index(w, "counter", counter, program.counters)
                if target < 1:
                    raise ConfigError(f"wg{w}: waitc target must be >= 1")
                if held is not None:
                    raise ConfigError(
                        f"wg{w}: waitc inside a critical section")
            elif op == ACQUIRE:
                _check_index(w, "mutex", action[1], program.mutexes)
                if held is not None:
                    raise ConfigError(
                        f"wg{w}: acquire while holding mutex {held} — at "
                        "most one mutex may be held at a time")
                held = action[1]
            elif op == RELEASE:
                _check_index(w, "mutex", action[1], program.mutexes)
                if held != action[1]:
                    raise ConfigError(
                        f"wg{w}: release of mutex {action[1]} while "
                        f"holding {held!r}")
                held = None
            elif op == IF_FLAG:
                _, flag, value, sub = action
                _check_index(w, "flag", flag, program.flags)
                if value < 1:
                    raise ConfigError(
                        f"wg{w}: if_flag on the initial flag value 0 is "
                        "always taken — guards must be statically "
                        "never-taken")
                if held is not None:
                    raise ConfigError(f"wg{w}: if_flag inside a critical "
                                      "section")
                for inner in sub:
                    if inner[0] == IF_FLAG:
                        raise ConfigError(f"wg{w}: nested if_flag")
                    if inner[0] in (ACQUIRE, RELEASE):
                        raise ConfigError(
                            f"wg{w}: mutex ops inside if_flag")
            else:
                raise ConfigError(f"wg{w}: unknown action {op!r}")
        if held is not None:
            raise ConfigError(
                f"wg{w}: script ends still holding mutex {held}")

    # if_flag guards must be deterministically never-taken: the guarded
    # flag may not be set by any script, so it stays 0 (see module
    # docstring), and the guard value is at least 1 (checked above).
    for w, script in enumerate(program.scripts):
        for action in script:
            if action[0] == IF_FLAG and action[1] in set_flags:
                raise ConfigError(
                    f"wg{w}: if_flag guards flag {action[1]} which is "
                    "written — guards must be statically never-taken")


def _check_index(wg: int, kind: str, index: int, count: int) -> None:
    if not 0 <= index < count:
        raise ConfigError(
            f"wg{wg}: {kind} index {index} out of range (program "
            f"declares {count})")


# ---------------------------------------------------------------------------
# canonical form + content addressing
# ---------------------------------------------------------------------------

def _clamp_work(cycles: int) -> int:
    cycles = max(WORK_MIN, min(WORK_MAX, cycles))
    return ((cycles + WORK_STEP // 2) // WORK_STEP) * WORK_STEP


def canonicalize(program: LitmusProgram) -> LitmusProgram:
    """Deterministic canonical form: work durations snapped to the
    :data:`WORK_STEP` grid, shared variables renumbered in first-use
    order (scanning wg0..wgN, action order), unused variables dropped.
    Idempotent; preserves semantics."""
    flag_map: Dict[int, int] = {}
    counter_map: Dict[int, int] = {}
    mutex_map: Dict[int, int] = {}

    def remap(table: Dict[int, int], index: int) -> int:
        if index not in table:
            table[index] = len(table)
        return table[index]

    def canon_action(action: Action) -> Action:
        op = action[0]
        if op == WORK:
            return (WORK, _clamp_work(action[1]))
        if op in (SET, WAIT):
            return (op, remap(flag_map, action[1]), action[2])
        if op in (ADD, WAITC):
            return (op, remap(counter_map, action[1]), action[2])
        if op in (ACQUIRE, RELEASE):
            return (op, remap(mutex_map, action[1]))
        if op == IF_FLAG:
            return (IF_FLAG, remap(flag_map, action[1]), action[2],
                    tuple(canon_action(a) for a in action[3]))
        raise ConfigError(f"unknown action {op!r}")

    scripts = tuple(tuple(canon_action(a) for a in script)
                    for script in program.scripts)
    out = replace(
        program,
        scripts=scripts,
        flags=len(flag_map),
        counters=len(counter_map),
        mutexes=len(mutex_map),
    )
    validate_program(out)
    return out


def program_name(program: LitmusProgram) -> str:
    """Content-addressed name ``lit-<sha256[:10]>`` of the canonical
    spec (alias excluded)."""
    spec = canonicalize(program).spec()
    spec.pop("alias", None)
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return "lit-" + hashlib.sha256(blob.encode()).hexdigest()[:10]


# ---------------------------------------------------------------------------
# the reference interpreter (fair abstract execution)
# ---------------------------------------------------------------------------

@dataclass
class InterpState:
    """Abstract machine state: per-WG program counters (top-level action
    index; len(script) = completed) plus shared-variable values."""

    pcs: List[int]
    flags: List[int]
    counters: List[int]
    locks: List[int]

    @classmethod
    def initial(cls, program: LitmusProgram) -> "InterpState":
        return cls(
            pcs=[0] * program.wgs,
            flags=[0] * program.flags,
            counters=[0] * program.counters,
            locks=[0] * program.mutexes,
        )


@dataclass
class InterpResult:
    """Outcome of one fair abstract execution."""

    #: WGs that ran their script to completion
    completed: FrozenSet[int]
    #: every WG (fair or not) completed
    terminated: bool
    #: number of wait-actions (wait/waitc/acquire) *entered*
    waits_reached: int
    #: blocked WGs -> the action they are stuck at
    blocked: Dict[int, Action] = field(default_factory=dict)
    state: Optional[InterpState] = None


def _enabled(action: Action, state: InterpState) -> bool:
    op = action[0]
    if op == WAIT:
        return state.flags[action[1]] == action[2]
    if op == WAITC:
        return state.counters[action[1]] >= action[2]
    if op == ACQUIRE:
        return state.locks[action[1]] == 0
    return True


def interpret(
    program: LitmusProgram,
    fair: Optional[Set[int]] = None,
    start: Optional[InterpState] = None,
) -> InterpResult:
    """Execute the program abstractly under an eventually-fair scheduler
    restricted to the ``fair`` set of WGs (default: all).

    Runs each fair WG to its next blocking point, id order, round-robin,
    until quiescent. With the DSL's well-formedness rules the
    termination answer is schedule-independent, so this doubles as the
    ground truth for "must this program complete under a scheduler that
    is fair to ``fair``?" — the executable heart of the progress models.
    Non-fair WGs never execute (their pcs stay frozen), but their
    completion state still counts toward ``terminated``.
    """
    fair_set = set(range(program.wgs)) if fair is None else set(fair)
    state = start if start is not None else InterpState.initial(program)
    waits_reached = 0

    def step_wg(w: int) -> bool:
        """Run wg ``w`` until blocked/done; True if it executed anything."""
        nonlocal waits_reached
        script = program.scripts[w]
        moved = False
        while state.pcs[w] < len(script):
            action = script[state.pcs[w]]
            op = action[0]
            if op in WAIT_OPS:
                key = (w, state.pcs[w])
                if key not in _entered:
                    _entered.add(key)
                    waits_reached += 1
                if not _enabled(action, state):
                    return moved
            if op == ACQUIRE:
                state.locks[action[1]] = 1
            elif op == RELEASE:
                state.locks[action[1]] = 0
            elif op == SET:
                state.flags[action[1]] = action[2]
            elif op == ADD:
                state.counters[action[1]] += action[2]
            # WORK, WAIT/WAITC (once enabled) and IF_FLAG (whose guard is
            # never taken in a valid program) have no state effect
            state.pcs[w] += 1
            moved = True
        return moved

    _entered: Set[Tuple[int, int]] = set()
    progressed = True
    while progressed:
        progressed = False
        for w in sorted(fair_set):
            if step_wg(w):
                progressed = True

    completed = frozenset(
        w for w in range(program.wgs)
        if state.pcs[w] >= len(program.scripts[w]))
    blocked: Dict[int, Action] = {
        w: program.scripts[w][state.pcs[w]]
        for w in range(program.wgs) if w not in completed}
    return InterpResult(
        completed=completed,
        terminated=len(completed) == program.wgs,
        waits_reached=waits_reached,
        blocked=blocked,
        state=state,
    )


# ---------------------------------------------------------------------------
# template families (the adversarial shapes from the paper's §IV/§VI)
# ---------------------------------------------------------------------------

def handoff(
    wgs: int = 4,
    wgs_per_cu: int = 2,
    rounds: int = 2,
    cs_cycles: int = 300,
    loss_at_us: Optional[float] = None,
    restore_at_us: Optional[float] = None,
    alias: Optional[str] = None,
) -> LitmusProgram:
    """Mutex hand-off: every WG loops acquire / critical section /
    release on one shared test-and-set lock. With a resource-loss
    window, evicted WGs (possibly the lock holder) make the run hang
    under any policy that cannot restore them."""
    script: List[Action] = []
    for _ in range(rounds):
        script.extend([
            (WORK, 100),
            (ACQUIRE, 0),
            (ADD, 0, 1),
            (WORK, cs_cycles),
            (RELEASE, 0),
        ])
    return canonicalize(LitmusProgram(
        wgs=wgs, scripts=tuple(tuple(script) for _ in range(wgs)),
        flags=0, counters=1, mutexes=1, wgs_per_cu=wgs_per_cu,
        loss_at_us=loss_at_us, restore_at_us=restore_at_us, alias=alias))


def producer_consumer(
    consumers: int = 4,
    wgs_per_cu: int = 2,
    produce_cycles: int = 200,
    alias: Optional[str] = None,
) -> LitmusProgram:
    """The §IV.B occupancy slot cycle: the *last* WG produces a flag
    every earlier WG waits on. With consumers filling the occupancy,
    a non-IFP scheduler never places the producer on a CU."""
    consumer: Script = ((WAIT, 0, 1), (WORK, 100))
    producer: Script = ((WORK, produce_cycles), (SET, 0, 1))
    return canonicalize(LitmusProgram(
        wgs=consumers + 1,
        scripts=tuple([consumer] * consumers + [producer]),
        flags=1, wgs_per_cu=wgs_per_cu, alias=alias))


def chain(
    wgs: int = 6,
    wgs_per_cu: int = 2,
    forward: bool = True,
    alias: Optional[str] = None,
) -> LitmusProgram:
    """Flag hand-off chain. ``forward``: WG *i* waits on WG *i-1* (safe
    under a linear oldest-first dispatcher even oversubscribed);
    backward: WG *i* waits on WG *i+1* (adversarial for any
    occupancy-bound scheduler)."""
    scripts: List[Script] = []
    for w in range(wgs):
        script: List[Action] = [(WORK, 100)]
        pred = w - 1 if forward else w + 1
        if 0 <= pred < wgs:
            script.append((WAIT, pred, 1))
        script.append((SET, w, 1))
        scripts.append(tuple(script))
    return canonicalize(LitmusProgram(
        wgs=wgs, scripts=tuple(scripts), flags=wgs,
        wgs_per_cu=wgs_per_cu, alias=alias))


def barrier_subset(
    wgs: int = 6,
    participants: Optional[int] = None,
    wgs_per_cu: int = 2,
    alias: Optional[str] = None,
) -> LitmusProgram:
    """A counter barrier over the first ``participants`` WGs (default
    all); the rest do independent work. Oversubscribed participant sets
    recreate the paper's barrier deadlock under occupancy-bound
    scheduling."""
    k = wgs if participants is None else participants
    scripts: List[Script] = []
    for w in range(wgs):
        if w < k:
            scripts.append(((WORK, 100 + 50 * (w % 3)),
                            (ADD, 0, 1), (WAITC, 0, k)))
        else:
            scripts.append(((WORK, 200),))
    return canonicalize(LitmusProgram(
        wgs=wgs, scripts=tuple(scripts), counters=1,
        wgs_per_cu=wgs_per_cu, alias=alias))


def unreachable_wait(alias: Optional[str] = None) -> LitmusProgram:
    """The vacuity fixture: the only wait hides behind an ``if_flag``
    guard on a flag no script ever sets, so it is never reached and
    every model's verdict must be *vacuous*, not *satisfied*."""
    wg0: Script = ((WORK, 100), (IF_FLAG, 0, 1, ((WAIT, 1, 1),)))
    wg1: Script = ((WORK, 100),)
    return canonicalize(LitmusProgram(
        wgs=2, scripts=(wg0, wg1), flags=2, wgs_per_cu=2, alias=alias))


def unsatisfiable_wait(alias: Optional[str] = None) -> LitmusProgram:
    """A programming bug, not a scheduling failure: WG0 waits on a flag
    nobody sets. Every model *allows* the resulting hang (no fairness
    obligation can satisfy the wait), so all policies may deadlock."""
    wg0: Script = ((WAIT, 0, 1),)
    wg1: Script = ((WORK, 200),)
    return canonicalize(LitmusProgram(
        wgs=2, scripts=(wg0, wg1), flags=1, wgs_per_cu=2, alias=alias))


# ---------------------------------------------------------------------------
# seeded random generation (the CLI exploration surface)
# ---------------------------------------------------------------------------

def random_program(rng: random.Random) -> LitmusProgram:
    """One random adversarial program, drawn from the template families
    with randomized scale, occupancy and resource-loss parameters.
    Deterministic for a given :class:`random.Random` state."""
    family = rng.choice(
        ("handoff", "handoff", "producer_consumer", "chain",
         "barrier_subset", "unreachable", "unsatisfiable"))
    wgs_per_cu = rng.randint(1, 3)
    if family == "handoff":
        loss = rng.random() < 0.5
        restore = loss and rng.random() < 0.4
        loss_at = round(rng.uniform(0.5, 3.0), 1) if loss else None
        return handoff(
            wgs=rng.randint(2, 6),
            wgs_per_cu=wgs_per_cu,
            rounds=rng.randint(1, 3),
            cs_cycles=rng.randrange(100, 800, 50),
            loss_at_us=loss_at,
            restore_at_us=(round(loss_at + rng.uniform(1.0, 4.0), 1)
                           if restore else None),
        )
    if family == "producer_consumer":
        return producer_consumer(
            consumers=rng.randint(2, 6),
            wgs_per_cu=wgs_per_cu,
            produce_cycles=rng.randrange(100, 600, 50),
        )
    if family == "chain":
        return chain(
            wgs=rng.randint(3, 7),
            wgs_per_cu=wgs_per_cu,
            forward=rng.random() < 0.5,
        )
    if family == "barrier_subset":
        wgs = rng.randint(3, 7)
        return barrier_subset(
            wgs=wgs,
            participants=rng.randint(2, wgs),
            wgs_per_cu=wgs_per_cu,
        )
    if family == "unreachable":
        return unreachable_wait()
    return unsatisfiable_wait()


def random_corpus(seed: int, count: int) -> List[LitmusProgram]:
    """``count`` distinct random programs from one seed (deduplicated
    by content-addressed name, drawing more as needed)."""
    rng = random.Random(seed)
    out: List[LitmusProgram] = []
    seen: Set[str] = set()
    attempts = 0
    while len(out) < count and attempts < count * 50:
        attempts += 1
        program = random_program(rng)
        if program.name not in seen:
            seen.add(program.name)
            out.append(program)
    return out
