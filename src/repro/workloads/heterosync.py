"""Kernel builders for the HeteroSync-style benchmarks (Table 2).

Mutex benchmarks: every WG repeatedly does private work, acquires its
mutex, runs a critical section that performs a *non-atomic*
read-modify-write on shared data (so mutual-exclusion violations show up
as lost updates), and releases. Global (``_G``) variants share one mutex
across the grid; local (``_L``) variants use one mutex per group of
``wgs_per_group`` WGs.

Barrier benchmarks: every WG computes (with per-WG jitter so arrivals
spread out) and joins a grid-wide two-level tree barrier for a number of
episodes; each WG bumps its own episode word after every episode so
barrier-ordering violations are detectable from final memory state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device_api import WavefrontCtx
    from repro.gpu.gpu import GPU
    from repro.sync.barrier import AtomicTreeBarrier, LFTreeBarrier

#: spread (cycles) of the per-WG, per-episode extra compute before each
#: barrier, so arrivals do not land in lockstep
WORK_JITTER = 400


def make_mutex_body(
    mutexes: Sequence,
    group_of: Callable[[int], int],
    data_addrs: Sequence[int],
    iterations: int,
    work_cycles: int,
    cs_cycles: int,
):
    """Kernel body for the mutex benchmarks.

    The critical section is a plain load / compute / store increment of
    the group's shared word — only mutual exclusion keeps it exact."""

    def body(ctx: "WavefrontCtx"):
        group = group_of(ctx.grid_index)
        mutex = mutexes[group]
        data = data_addrs[group]
        for _ in range(iterations):
            yield from ctx.compute(work_cycles)
            token = yield from mutex.acquire(ctx)
            value = yield from ctx.load(data)
            yield from ctx.compute(cs_cycles)
            yield from ctx.store(data, value + 1)
            yield from mutex.release(ctx, token)
            ctx.progress("cs_complete")

    return body


def make_racy_mutex_body(
    mutexes: Sequence,
    data_addrs: Sequence[int],
    iterations: int,
    work_cycles: int,
    cs_cycles: int,
    bypass_every: int = 4,
):
    """Deliberately broken mutex body: the sanitizer's positive fixture.

    Every ``bypass_every``-th WG skips the lock and performs the same
    read-modify-write on the shared word directly. The bypassing WG
    executes no atomics on the lock variable, so no happens-before edge
    orders its plain accesses against the critical sections — exactly the
    unsynchronized conflict the sanitizer exists to catch. Never part of
    BENCHMARKS; resolve it explicitly as ``_RACY``."""

    def body(ctx: "WavefrontCtx"):
        mutex = mutexes[0]
        data = data_addrs[0]
        for _ in range(iterations):
            yield from ctx.compute(work_cycles)
            if ctx.grid_index % bypass_every == bypass_every - 1:
                value = yield from ctx.load(data)
                yield from ctx.compute(cs_cycles)
                # The unprotected RMW is the point of this drill.
                yield from ctx.store(data, value + 1)  # repro: noqa[nonatomic-shared-rmw]
            else:
                token = yield from mutex.acquire(ctx)
                value = yield from ctx.load(data)
                yield from ctx.compute(cs_cycles)
                yield from ctx.store(data, value + 1)
                yield from mutex.release(ctx, token)
            ctx.progress("cs_complete")

    return body


def make_barrier_body(
    barrier,
    episodes: int,
    work_cycles: int,
    episode_addrs: Sequence[int],
):
    """Kernel body for the barrier benchmarks.

    Each WG stamps its per-WG episode word after every episode; a correct
    barrier leaves every word equal to ``episodes``."""

    def body(ctx: "WavefrontCtx"):
        idx = ctx.grid_index
        for episode in range(episodes):
            jitter = (idx * 7 + episode * 13) % WORK_JITTER
            yield from ctx.compute(work_cycles + jitter)
            yield from barrier.arrive(ctx, idx, episode)
            yield from ctx.store(episode_addrs[idx], episode + 1)

    return body


# ---------------------------------------------------------------------------
# host-side validation of final memory state (used by integration tests
# and the experiment runner's sanity mode)
# ---------------------------------------------------------------------------

def validate_mutex_run(
    gpu: "GPU",
    data_addrs: Sequence[int],
    wgs_per_group: List[int],
    iterations: int,
) -> None:
    """Every group's shared word must equal members * iterations."""
    for group, data in enumerate(data_addrs):
        expected = wgs_per_group[group] * iterations
        actual = gpu.store.read(data)
        if actual != expected:
            raise AssertionError(
                f"mutex data[{group}] = {actual}, expected {expected} "
                "(mutual exclusion violated or WGs lost)"
            )


def validate_barrier_run(
    gpu: "GPU",
    episode_addrs: Sequence[int],
    episodes: int,
) -> None:
    for idx, addr in enumerate(episode_addrs):
        actual = gpu.store.read(addr)
        if actual != episodes:
            raise AssertionError(
                f"WG {idx} completed {actual}/{episodes} barrier episodes"
            )
