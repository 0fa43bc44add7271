"""Mutexes: spin (test-and-set), centralized ticket, decentralized ticket.

Each primitive is constructed host-side (allocating its synchronization
variables on the GPU) and used device-side through generator methods:

    mutex = SpinMutex(gpu)
    ...
    yield from mutex.acquire(ctx)
    ...critical section...
    yield from mutex.release(ctx)

The decentralized ticket mutex is a direct transliteration of the
paper's Figure 10 (right): the lock-acquire poll is a compare-and-wait
on the WG's own queue slot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import DeviceError
from repro.sync.roles import WaitHint, kernel_roles

if TYPE_CHECKING:  # pragma: no cover
    from typing import Optional

    from repro.gpu.device_api import WavefrontCtx
    from repro.gpu.gpu import GPU


class _LockDiscipline:
    """Holder bookkeeping shared by the mutexes.

    Structural misuse — releasing a lock that is not held (double
    release) or held by a different WG — raises a structured
    :class:`~repro.errors.DeviceError` naming the WG and lock address,
    and is recorded by the sanitizer when one is attached. Legitimate
    transitions feed the sanitizer's per-WG locksets.
    """

    gpu: "GPU"
    home_addr: int
    _holder: "Optional[int]"

    def _note_acquire(self, wg_id: int) -> None:
        self._holder = wg_id
        san = self.gpu.sanitizer
        if san is not None:
            san.on_lock_acquire(wg_id, self.home_addr)

    def _note_release(self, wg_id: int) -> None:
        san = self.gpu.sanitizer
        if self._holder == wg_id:
            self._holder = None
            if san is not None:
                san.on_lock_release(wg_id, self.home_addr)
            return
        kind = ("release-without-acquire" if self._holder is None
                else "release-by-non-holder")
        primitive = type(self).__name__
        if san is not None:
            san.record_lock_error(wg_id, self.home_addr, kind, primitive)
        held_by = (f" (held by WG{self._holder})"
                   if self._holder is not None else "")
        raise DeviceError(
            f"{primitive}.release() {kind}: WG{wg_id} does not hold "
            f"lock @0x{self.home_addr:x}{held_by}"
        )


class SpinMutex(_LockDiscipline):
    """Test-and-set lock (HeteroSync SpinMutex / SpinMutexBO).

    ``backoff=True`` gives the SPMBO variants: busy-waiting policies back
    off exponentially in software between failed test-and-sets.
    """

    def __init__(self, gpu: "GPU", backoff: bool = False) -> None:
        self.gpu = gpu
        self.backoff = backoff
        self.lock_addr = gpu.alloc_sync_vars(1)[0]
        self._holder = None

    @property
    def home_addr(self) -> int:
        """The contended cache line (shared data is co-located here, as
        HeteroSync keeps lock and protected data adjacent)."""
        return self.lock_addr

    def acquire(self, ctx: "WavefrontCtx"):
        """Returns an opaque token to pass to :meth:`release`."""
        yield from ctx.acquire_test_and_set(
            self.lock_addr, software_backoff=self.backoff
        )
        self._note_acquire(ctx.wg_id)
        ctx.progress("mutex_acquire")
        return None

    def release(self, ctx: "WavefrontCtx", token=None):
        self._note_release(ctx.wg_id)
        yield from ctx.atomic_exch(self.lock_addr, 0)


class FAMutex(_LockDiscipline):
    """Centralized fetch-and-add ticket lock (HeteroSync FAMutex).

    One ticket-dispenser word and one now-serving word; each waiter waits
    on its own ticket value of the now-serving counter, so conditions are
    distinct but the variable is shared (Table 2: 1 sync var, G conds)."""

    def __init__(self, gpu: "GPU") -> None:
        self.gpu = gpu
        addrs = gpu.alloc_sync_vars(2)
        self.ticket_addr, self.serving_addr = addrs
        self._holder = None

    @property
    def home_addr(self) -> int:
        return self.serving_addr

    def acquire(self, ctx: "WavefrontCtx"):
        my_ticket = yield from ctx.atomic_add(self.ticket_addr, 1)
        yield from ctx.wait_for_value(
            self.serving_addr, expected=my_ticket, exclusive=True
        )
        self._note_acquire(ctx.wg_id)
        ctx.progress("mutex_acquire")
        return my_ticket

    def release(self, ctx: "WavefrontCtx", token=None):
        self._note_release(ctx.wg_id)
        yield from ctx.atomic_add(self.serving_addr, 1)


class SleepMutex(_LockDiscipline):
    """Decentralized ticket lock (HeteroSync SleepMutex; paper Figure 10).

    Each locker takes a queue slot by bumping the tail pointer, then
    waits on *its own* slot turning 1. Unlock marks the own slot -1 and
    writes 1 into the next slot. One waiter, one condition, one update
    per synchronization variable — the decentralized sweet spot for
    monitor-based policies."""

    #: queue-slot states
    UNLOCKED = 1
    CONSUMED = -1

    def __init__(self, gpu: "GPU", queue_slots: int) -> None:
        if queue_slots < 2:
            raise DeviceError("SleepMutex needs at least 2 queue slots")
        self.gpu = gpu
        self.queue_slots = queue_slots
        self._holder = None
        self.tail_addr = gpu.alloc_sync_vars(1)[0]
        self.slot_addrs = gpu.alloc_sync_vars(queue_slots)
        # The first queue entry starts unlocked (Figure 10 commentary).
        gpu.store.write(self.slot_addrs[0], self.UNLOCKED)

    @property
    def home_addr(self) -> int:
        return self.tail_addr

    def _slot(self, ticket: int) -> int:
        return self.slot_addrs[ticket % self.queue_slots]

    # The queue slot is a *computed* address (`self._slot(ticket)`), so
    # wait-to-writer matching cannot be inferred from the address
    # expression alone — the hint carries Figure 10's structure: the
    # holder's release writes the next slot, one waiter per word.
    @kernel_roles(waits=(WaitHint("_slot", waiter="contender",
                                  updater="holder", single_waiter=True),))
    def acquire(self, ctx: "WavefrontCtx"):
        ticket = yield from ctx.atomic_add(self.tail_addr, 1)
        # atomicCmpWait(myQueueLoc, 1): arm the SyncMon if the comparison
        # fails; no window of vulnerability (Figure 10, right).
        yield from ctx.wait_for_value(
            self._slot(ticket), expected=self.UNLOCKED, exclusive=True
        )
        self._note_acquire(ctx.wg_id)
        ctx.progress("mutex_acquire")
        return ticket

    def release(self, ctx: "WavefrontCtx", token: int):
        self._note_release(ctx.wg_id)
        yield from ctx.atomic_exch(self._slot(token), self.CONSUMED)
        yield from ctx.atomic_exch(self._slot(token + 1), self.UNLOCKED)
