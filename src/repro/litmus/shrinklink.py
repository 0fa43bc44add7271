"""Shrink link: violating litmus schedules become minimal repro bundles.

When the oracle observes a contract violation (a cell the static spec
calls ``MUST_COMPLETE`` that hung, or a model judged ``violated`` that
the policy claims), the offending (program, policy, seed) triple is
packaged as an ``awg-repro-litmus-bundle`` through
:mod:`repro.recovery.bundle` and minimized by
:func:`repro.recovery.shrink.shrink_bundle`. This module supplies only
what is litmus-specific: :class:`LitmusRequest` (its spec, how a replay
observes and matches the expected clause, its program size and one-step
program reductions) and the oracle hook that builds bundles for a report.

Program reductions, in fixed order: drop a whole WG script, drop a
single action (validity-checked — e.g. dropping an ``acquire`` also
drops its ``release``), halve a ``work`` duration, drop the restore
window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.policies import PolicySpec, named_policy
from repro.errors import ConfigError
from repro.litmus.generate import (
    ACQUIRE,
    LitmusProgram,
    RELEASE,
    WORK,
    canonicalize,
    validate_program,
)
from repro.litmus.models import VIOLATED

# NOTE: repro.recovery.bundle imports LitmusRequest from this module at
# module scope, so violation_bundles imports make_bundle lazily: a
# module-scope import here would close the cycle bundle -> shrinklink
# -> bundle.


@dataclass(frozen=True)
class LitmusRequest:
    """One replayable litmus cell: program + policy + seed."""

    program: LitmusProgram
    policy: PolicySpec
    seed: int = 1

    def spec(self) -> Dict[str, Any]:
        return {
            "program": self.program.spec(),
            "policy": self.policy.spec(),
            "seed": self.seed,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "LitmusRequest":
        return cls(
            program=LitmusProgram.from_spec(spec["program"]),
            policy=PolicySpec.from_spec(spec["policy"]),
            seed=int(spec.get("seed", 1)),
        )

    def execute(self):
        from repro.litmus.oracle import run_litmus

        return run_litmus(self.program, self.policy, seed=self.seed)

    # -- repro-bundle hooks (repro.recovery.bundle / .shrink) -----------

    @staticmethod
    def bundle_stem(spec: Dict[str, Any]) -> str:
        policy = spec.get("policy", {}).get("name", "policy")
        # generated/shrunk programs have no alias; the digest names them
        program = spec.get("program", {}).get("alias") or "generated"
        return f"litmus-{program}-{policy}"

    @staticmethod
    def check_bundle(spec: Any, expected: Dict[str, Any]) -> None:
        """``expected`` modes: ``{"mode": "model-violation", "model": M}``
        (the replay must judge model M ``violated`` again) or
        ``{"mode": "contract", ...}`` (the replay must hang on a cell the
        spec calls MUST_COMPLETE again)."""
        if expected["mode"] not in ("model-violation", "contract"):
            raise ConfigError(
                "litmus bundle expected clause needs mode "
                "'model-violation' or 'contract'")
        if expected["mode"] == "model-violation" and "model" not in expected:
            raise ConfigError("model-violation bundles must name the model")

    def observe(self, expected: Dict[str, Any],
                trace: bool = False) -> Dict[str, Any]:
        if trace:
            raise ConfigError(
                "litmus bundles replay without a trace; --trace needs a "
                "cell bundle")
        run = self.execute()
        if expected["mode"] == "model-violation":
            judgment = run.judgments.get(expected["model"])
            return {
                "mode": "model-violation",
                "model": expected["model"],
                "verdict": judgment.verdict if judgment else "missing",
            }
        return {
            "mode": "contract",
            "violation": run.contract_violation,
            "completed": run.outcome.completed,
        }

    @staticmethod
    def matches(expected: Dict[str, Any], observed: Dict[str, Any]) -> bool:
        if expected["mode"] == "model-violation":
            return observed["verdict"] == VIOLATED
        return observed["violation"] is not None

    def size(self) -> int:
        return program_size(self.program)

    def reductions(self) -> Iterator[Tuple[str, str, str, "LitmusRequest"]]:
        """Every one-step reduction, deterministic order: whole WGs first
        (biggest steps), then single actions, then work halving, then the
        restore window."""
        program = self.program
        if program.wgs > 1:
            for w in range(program.wgs):
                scripts = tuple(s for i, s in enumerate(program.scripts)
                                if i != w)
                candidate = _try_canonical(replace(
                    program, wgs=program.wgs - 1, scripts=scripts,
                    alias=None))
                if candidate is not None:
                    yield (f"program.wg{w}", "present", "dropped",
                           replace(self, program=candidate))
        for w, script in enumerate(program.scripts):
            for i in range(len(script)):
                shrunk = _drop_action(script, i)
                if len(shrunk) == len(script):
                    continue
                scripts = tuple(shrunk if j == w else s
                                for j, s in enumerate(program.scripts))
                candidate = _try_canonical(replace(
                    program, scripts=scripts, alias=None))
                if candidate is not None:
                    yield (f"program.wg{w}[{i}]", script[i][0], "dropped",
                           replace(self, program=candidate))
        for w, script in enumerate(program.scripts):
            for i, action in enumerate(script):
                if action[0] == WORK and action[1] > 100:
                    halved = script[:i] + ((WORK, action[1] // 2),) \
                        + script[i + 1:]
                    scripts = tuple(halved if j == w else s
                                    for j, s in enumerate(program.scripts))
                    candidate = _try_canonical(replace(
                        program, scripts=scripts, alias=None))
                    if candidate is not None:
                        yield (f"program.wg{w}[{i}].work", str(action[1]),
                               str(action[1] // 2),
                               replace(self, program=candidate))
        if program.restore_at_us is not None:
            candidate = _try_canonical(replace(program, restore_at_us=None,
                                               alias=None))
            if candidate is not None:
                yield ("program.restore_at_us", str(program.restore_at_us),
                       "dropped", replace(self, program=candidate))


# ---------------------------------------------------------------------------
# program-level delta debugging
# ---------------------------------------------------------------------------

def program_size(program: LitmusProgram) -> int:
    """Monotone size metric: WG count + action count + work budget."""
    actions = sum(len(script) for script in program.scripts)
    work = sum(a[1] for script in program.scripts
               for a in script if a[0] == WORK)
    restore = 1 if program.restore_at_us is not None else 0
    return program.wgs + actions + work // 100 + restore


def _try_canonical(program: LitmusProgram) -> Optional[LitmusProgram]:
    try:
        validate_program(program)
        return canonicalize(program)
    except ConfigError:
        return None


def _drop_action(script, index) -> Tuple[Any, ...]:
    """Drop one action; an ``acquire`` takes its matching ``release``
    along (and vice versa) so mutex discipline survives."""
    action = script[index]
    partner = None
    if action[0] == ACQUIRE:
        for j in range(index + 1, len(script)):
            if script[j][0] == RELEASE and script[j][1] == action[1]:
                partner = j
                break
    elif action[0] == RELEASE:
        for j in range(index - 1, -1, -1):
            if script[j][0] == ACQUIRE and script[j][1] == action[1]:
                partner = j
                break
    drop = {index, partner} if partner is not None else {index}
    return tuple(a for j, a in enumerate(script) if j not in drop)


# ---------------------------------------------------------------------------
# oracle hook: one bundle per contract-violating run
# ---------------------------------------------------------------------------

def violation_bundles(report, seed: int = 1) -> List[Dict[str, Any]]:
    """One ``contract`` bundle per contract-violating run in ``report``
    (written, and shrunk on request, by
    :func:`repro.recovery.shrink.write_violation_bundles`)."""
    from repro.recovery.bundle import make_bundle

    return [
        make_bundle(
            LitmusRequest(program=run.program,
                          policy=named_policy(run.policy), seed=seed),
            expected={"mode": "contract", "expected_verdict": run.expected})
        for run in report.violating_runs()
    ]
