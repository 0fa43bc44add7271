"""The committed litmus corpus: named adversarial progress programs.

Thirteen canonical programs covering the idiom space the generator
draws from — mutex hand-offs, producer/consumer waits, dependency
chains, barrier subsets, resource-loss windows — plus the two
degenerate fixtures (a vacuous program whose wait is unreachable, and
an unsatisfiable wait no scheduler can save). Each carries a stable
``LIT_*`` alias on top of its content-addressed canonical name, so
goldens survive template refactors only when the canonical content
actually survives.

The corpus runs through :func:`repro.litmus.oracle.run_litmus`, on
each program's own small machine and loss window; litmus programs are
not benchmarks and do not resolve through the workload registry.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigError
from repro.litmus.generate import (
    LitmusProgram,
    barrier_subset,
    chain,
    handoff,
    producer_consumer,
    unreachable_wait,
    unsatisfiable_wait,
)

_CORPUS: Dict[str, LitmusProgram] = {}


def _add(program: LitmusProgram) -> None:
    if program.alias in _CORPUS:
        raise ConfigError(f"duplicate litmus alias {program.alias}")
    _CORPUS[program.alias] = program


# Occupancy on the litmus machine is 2 CUs x wgs_per_cu; with the
# default wgs_per_cu=2 a 4-WG program fits exactly and anything larger
# is oversubscribed. Aliases ending in OVER oversubscribe; LOSS
# schedules the standard mid-run loss window over CU 1.

# mutex hand-offs --------------------------------------------------------------
_add(handoff(wgs=4, alias="LIT_HANDOFF"))
_add(handoff(wgs=4, loss_at_us=1.0, alias="LIT_HANDOFF_LOSS"))
_add(handoff(wgs=6, alias="LIT_HANDOFF_OVER"))
_add(handoff(wgs=4, loss_at_us=1.0, restore_at_us=60.0,
             alias="LIT_LOSS_RESTORE"))

# producer/consumer flag waits -------------------------------------------------
_add(producer_consumer(consumers=3, alias="LIT_PRODCONS"))
_add(producer_consumer(consumers=4, alias="LIT_PRODCONS_OVER"))

# dependency chains ------------------------------------------------------------
_add(chain(wgs=6, forward=True, alias="LIT_CHAIN"))
_add(chain(wgs=6, forward=False, alias="LIT_CHAIN_REV"))

# barrier subsets (counter join points) ----------------------------------------
_add(barrier_subset(wgs=4, alias="LIT_BARRIER"))
_add(barrier_subset(wgs=6, alias="LIT_BARRIER_OVER"))
_add(barrier_subset(wgs=6, participants=3, alias="LIT_BARRIER_SUBSET"))

# degenerate fixtures ----------------------------------------------------------
_add(unreachable_wait(alias="LIT_VACUOUS"))
_add(unsatisfiable_wait(alias="LIT_UNSAT"))


def litmus_names() -> List[str]:
    return list(_CORPUS)


def get_litmus(name: str) -> LitmusProgram:
    """Resolve a corpus program by ``LIT_*`` alias or canonical name."""
    if name in _CORPUS:
        return _CORPUS[name]
    for program in _CORPUS.values():
        if program.name == name:
            return program
    raise ConfigError(
        f"unknown litmus program {name!r}; known: {litmus_names()}")


def litmus_corpus() -> List[LitmusProgram]:
    """The full committed corpus, alias order."""
    return list(_CORPUS.values())

