"""Atomic ALU operations performed at the GPU last-level cache.

GPUs execute atomics at the shared L2 (write-through L1s, no
ownership-based coherence — paper §IV.C.iii). Each operation reads the
word, computes a new value, optionally writes it back, and returns the
*old* value. The :class:`AtomicResult` also reports whether the word
changed, which is what the SyncMon keys its condition checks on.

Waiting atomics (paper §IV.D) are ordinary atomics carrying an extra
*expected* operand; success is defined per-op below. On failure the
(address, expected) pair forms the WG's waiting condition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import DeviceError
from repro.mem.backing import BackingStore, wrap32


class AtomicOp(enum.Enum):
    """Atomic operations supported by the L2 atomic ALU."""

    LOAD = "load"
    STORE = "store"
    ADD = "add"
    SUB = "sub"
    EXCH = "exch"
    CAS = "cas"
    MAX = "max"
    MIN = "min"
    OR = "or"
    AND = "and"


@dataclass
class AtomicResult:
    """Outcome of one atomic operation at the L2."""

    op: AtomicOp
    addr: int
    old: int
    new: int
    #: True if the word's value changed (drives SyncMon condition checks).
    wrote: bool
    #: For waiting atomics: did the comparison with `expected` succeed?
    success: Optional[bool] = None


def execute(
    store: BackingStore,
    op: AtomicOp,
    addr: int,
    operand: int = 0,
    operand2: int = 0,
) -> AtomicResult:
    """Perform ``op`` on ``store[addr]`` and return the result."""
    old = store.read(addr)
    if op is AtomicOp.LOAD:
        new = old
    elif op is AtomicOp.STORE:
        new = wrap32(operand)
    elif op is AtomicOp.ADD:
        new = wrap32(old + operand)
    elif op is AtomicOp.SUB:
        new = wrap32(old - operand)
    elif op is AtomicOp.EXCH:
        new = wrap32(operand)
    elif op is AtomicOp.CAS:
        # operand = compare value, operand2 = swap value
        new = wrap32(operand2) if old == wrap32(operand) else old
    elif op is AtomicOp.MAX:
        new = max(old, wrap32(operand))
    elif op is AtomicOp.MIN:
        new = min(old, wrap32(operand))
    elif op is AtomicOp.OR:
        new = wrap32(old | operand)
    elif op is AtomicOp.AND:
        new = wrap32(old & operand)
    else:  # pragma: no cover - enum exhaustive
        raise DeviceError(f"unknown atomic op {op}")
    wrote = new != old
    if wrote:
        store.write(addr, new)
    return AtomicResult(op=op, addr=addr, old=old, new=new, wrote=wrote)
