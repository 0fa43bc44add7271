"""§I and §II.D: the software answers that came before AWG, each on a
busy-waiting GPU, against the same kernel launched dynamically under
AWG, on a 2-CU machine with 2 WG slots per CU.

Cooperative groups (:mod:`repro.gpu.cooperative`) assign the whole grid
at once: they refuse a grid larger than the machine and hold a grid
back until a co-tenant frees every slot it needs. The occupancy-
discovery barrier (:mod:`repro.sync.discovery`) stays safe at any
occupancy but cannot adapt when a participant is evicted mid-run.
The runs take a fraction of a second and none is a benchmark cell, so
``table()`` simulates them directly, outside the result cache.
"""

from __future__ import annotations

from typing import List

from repro.core.policies import awg, baseline
from repro.errors import DeviceError
from repro.experiments.report import ExperimentResult
from repro.gpu.config import GPUConfig
from repro.gpu.cooperative import launch_cooperative
from repro.gpu.gpu import GPU
from repro.gpu.kernel import Kernel
from repro.gpu.preemption import ResourceLossEvent
from repro.sync.barrier import AtomicTreeBarrier
from repro.sync.discovery import DiscoveredBarrier, OccupancyDiscovery

PRIOR, AWG = "prior work", "AWG"
REFUSED = "REFUSED"
#: cycles the co-tenant kernel holds 3 of the 4 slots
BUSY = 40_000

OVERSIZED = "coop: 12-WG barrier grid, done at"
WAIT_START = "coop: 4-WG grid beside a busy kernel, first WG at"
DISCOVERY = "discovery: 8-WG grid, done at"
DISCOVERY_LOSS = "discovery: 4-WG grid, CU lost at 10 us, done at"


def _barrier(gpu: GPU, wgs: int, group: int, starts: List[int]) -> Kernel:
    """3 tree-barrier episodes; ``starts`` collects the cycle each WG
    first runs."""
    barrier = AtomicTreeBarrier(gpu, wgs, group)

    def body(ctx):
        starts.append(ctx.env.now)
        for ep in range(3):
            yield from ctx.compute(300)
            yield from barrier.arrive(ctx, ctx.grid_index, ep)

    return Kernel(name="barrier", body=body, grid_wgs=wgs)


def _discovery(gpu: GPU, wgs: int, episodes: int, work: int) -> Kernel:
    """The WGs that join the discovery poll in time run ``episodes``
    barrier episodes among themselves; the rest opt out."""
    discovery = OccupancyDiscovery(gpu)
    barrier = DiscoveredBarrier(gpu, discovery)

    def body(ctx):
        if (yield from discovery.join(ctx)) is None:
            return
        size = yield from discovery.group_size(ctx)
        for ep in range(episodes):
            yield from ctx.compute(work + (ctx.grid_index * 31) % 200)
            yield from barrier.arrive(ctx, size, ep)

    return Kernel(name="discovery", body=body, grid_wgs=wgs)


def _busy(ctx):
    yield from ctx.compute(BUSY)


def _run(prior: bool, case: str):
    """One cell of ``case``: the run's cycles (the first WG's start for
    WAIT_START), or REFUSED or DEADLOCK where it cannot complete."""
    gpu = GPU(GPUConfig(num_cus=2, max_wgs_per_cu=2,
                        deadlock_window=150_000),
              baseline() if prior else awg())
    launch = launch_cooperative if prior else GPU.launch
    starts: List[int] = []
    if case == OVERSIZED:
        try:
            launch(gpu, _barrier(gpu, 12, 4, starts))
        except DeviceError:
            return REFUSED
    elif case == WAIT_START:
        gpu.launch(Kernel(name="busy", body=_busy, grid_wgs=3))
        gpu.env.run(until=100)
        launch(gpu, _barrier(gpu, 4, 2, starts))
    elif case == DISCOVERY:
        gpu.launch(_discovery(gpu, 8, episodes=3, work=300))
    else:
        gpu.launch(_discovery(gpu, 4, episodes=30, work=2_000))
        ResourceLossEvent(at_us=10, cu_id=1).schedule(gpu)
    out = gpu.run()
    if not out.ok:
        return f"DEADLOCK ({out.reason})"
    return min(starts) if case == WAIT_START else out.cycles


def table() -> ExperimentResult:
    result = ExperimentResult(
        title="Prior work (cooperative groups, occupancy discovery) on a "
              "busy-waiting GPU vs AWG, 2 CUs x 2 WG slots (cycles)",
        columns=[PRIOR, AWG],
        row_label="case",
    )
    for case in (OVERSIZED, WAIT_START, DISCOVERY, DISCOVERY_LOSS):
        result.add_row(case, **{PRIOR: _run(True, case),
                                AWG: _run(False, case)})
    result.notes.append(
        f"prior work runs under Baseline (busy-waiting); the co-tenant "
        f"kernel computes for {BUSY:,} cycles from cycle 0")
    return result


def check(result: ExperimentResult) -> None:
    """Assert §II.D and §I: a cooperative launch is refused or delayed
    where AWG completes, and the discovery barrier deadlocks on a
    mid-run loss where AWG completes."""
    data = result.data
    assert data[OVERSIZED][PRIOR] == REFUSED
    # static assignment waits out the co-tenant; AWG starts on the free
    # slot before the co-tenant ends
    assert data[WAIT_START][PRIOR] >= BUSY > data[WAIT_START][AWG]
    # discovery keeps busy-waiting safe at any occupancy, but not across
    # a mid-run loss
    assert isinstance(data[DISCOVERY][PRIOR], int)
    assert data[DISCOVERY_LOSS][PRIOR] == "DEADLOCK (watchdog)"
    for case in (OVERSIZED, DISCOVERY, DISCOVERY_LOSS):
        assert isinstance(data[case][AWG], int), case
