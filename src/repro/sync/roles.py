"""Work-group role annotations for the static progress analyzer.

The progress pass (:mod:`repro.analysis.progress`) derives a wait-for
graph between *roles* — the distinct jobs work-groups take inside one
synchronization protocol (lock holder vs. contender, barrier member vs.
group leader vs. root). Most of that structure is inferred from the
CFGs: a blessed wait names the storage family it polls, the matching
release write names who satisfies it, and role branches show up as
guards on ``is_group_leader`` / ``group == 0`` tests.

Where inference cannot see through an indirection, kernels carry an
explicit :func:`kernel_roles` annotation. The canonical example is
``SleepMutex``: the waiter polls ``self._slot(ticket)`` — a *computed*
address — and only the ``waits=`` hint tells the analyzer that the slot
family is written by the lock holder and has exactly one waiter per
word (Figure 10's decentralized queue). The annotation does nothing at
run time: the AST pass parses the decorator call from the source, which
also reaches the heterosync kernels, nested functions that no import can.

This module is import-light on purpose (stdlib only): it is imported by
``repro.sync`` primitives and must not drag the simulator in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple


@dataclass(frozen=True)
class WaitHint:
    """One wait-for edge the analyzer should trust over inference.

    ``base`` is the storage family the wait polls (the attribute or
    callee name its address expression resolves to, e.g. ``"_slot"``
    for ``self._slot(ticket)``); ``waiter`` / ``updater`` are role
    names; ``single_waiter`` marks a decentralized word with at most
    one WG parked on it (Table 2's "waiters per condition = 1").
    """

    base: str
    waiter: str
    updater: str
    single_waiter: bool = False


@dataclass(frozen=True)
class SyncProtocol:
    """The synchronization structure of one benchmark, statically known,
    beyond its spec's ``category`` (whose ``make_<category>_body``
    heterosync factory drives it).

    ``primitive`` names the class in ``repro.sync`` whose methods carry
    the protocol's waits. ``decentralized`` follows the paper's Table 2
    split: one waiter and one update per sync variable (SleepMutex,
    LFTreeBarr) vs. shared counters everyone polls.
    """

    primitive: str  # class name in repro.sync, e.g. "SpinMutex"
    decentralized: bool = False


def kernel_roles(waits: Tuple[WaitHint, ...] = ()) -> Callable:
    """Annotate a kernel (or sync-primitive method) with the wait-for
    edges inference cannot see.

    Purely declarative: returns the function unchanged; the static pass
    reads the call from the source. Example::

        @kernel_roles(waits=(WaitHint("_slot", waiter="contender",
                                      updater="holder",
                                      single_waiter=True),))
        def acquire(self, ctx): ...
    """

    return lambda fn: fn
