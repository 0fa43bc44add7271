"""Occupancy-discovery barriers (Sorensen et al., OOPSLA 2016 — §II).

The portable *software* answer to inter-WG barrier deadlock on current
GPUs: at kernel start, WGs race to join a mutex-protected poll; the
first joiner eventually closes it, and only the WGs that joined before
the close — which are exactly WGs that got scheduled, i.e. *resident* —
participate in the barrier. Everyone else opts out immediately.

This works without any hardware support and under plain busy-waiting,
because the discovered group is co-resident by construction. Its
documented limitation (paper §I, Figure 2) is what AWG fixes: the
protocol "cannot adjust to mid-execution resource reductions" — evict a
discovered participant and the rest spin forever (``python -m repro
prior_work`` runs both cases against AWG).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sync.mutex import SpinMutex

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device_api import WavefrontCtx
    from repro.gpu.gpu import GPU


class OccupancyDiscovery:
    """The discovery poll: counts the WGs that get scheduled in time."""

    def __init__(self, gpu: "GPU", close_after: int = 4_000) -> None:
        self.gpu = gpu
        #: cycles a joiner waits before trying to close the poll
        self.close_after = close_after
        self.poll_lock = SpinMutex(gpu)
        addrs = gpu.alloc_sync_vars(3)
        self.count_addr, self.closed_addr, self.size_addr = addrs

    def join(self, ctx: "WavefrontCtx"):
        """Try to join the discovered group.

        Returns this WG's rank within the group, or ``None`` if the poll
        already closed (the WG must opt out of the synchronized phase).
        Generator — call as ``rank = yield from d.join(ctx)``.
        """
        token = yield from self.poll_lock.acquire(ctx)
        closed = yield from ctx.atomic_load(self.closed_addr)
        if closed:
            yield from self.poll_lock.release(ctx, token)
            return None
        rank = yield from ctx.atomic_add(self.count_addr, 1)
        yield from self.poll_lock.release(ctx, token)

        # After a grace period, the first joiner (any joiner, really —
        # CAS makes it idempotent) closes the poll and freezes the size.
        yield from ctx.compute(self.close_after)
        token = yield from self.poll_lock.acquire(ctx)
        closed = yield from ctx.atomic_load(self.closed_addr)
        if not closed:
            count = yield from ctx.atomic_load(self.count_addr)
            yield from ctx.atomic_store(self.size_addr, count)
            yield from ctx.atomic_store(self.closed_addr, 1)
        yield from self.poll_lock.release(ctx, token)
        return rank

    def group_size(self, ctx: "WavefrontCtx"):
        """Wait until the poll has closed and return the discovered size."""
        yield from ctx.wait_for_value(self.closed_addr, expected=1)
        size = yield from ctx.atomic_load(self.size_addr)
        return size


class DiscoveredBarrier:
    """A flat barrier over whatever group the discovery protocol found.

    Monotonic arrival counter; episode ``ep``'s release condition is the
    counter reaching ``(ep + 1) * size`` (software re-check is ``>=`` so
    Mesa-style retries are safe)."""

    def __init__(self, gpu: "GPU", discovery: OccupancyDiscovery) -> None:
        self.gpu = gpu
        self.discovery = discovery
        self.counter_addr = gpu.alloc_sync_vars(1)[0]

    def arrive(self, ctx: "WavefrontCtx", size: int, episode: int):
        target = (episode + 1) * size
        yield from ctx.atomic_add(self.counter_addr, 1)
        yield from ctx.wait_for_value(
            self.counter_addr,
            expected=target,
            satisfied=lambda v, t=target: v >= t,
        )
        ctx.progress("discovered_barrier")
