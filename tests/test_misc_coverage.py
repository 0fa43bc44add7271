"""Small coverage tests for utility surfaces."""

from repro.core.policies import awg
from repro.gpu.preemption import ResourceRestoreEvent
from repro.sync.mutex import SpinMutex

from tests.gpu.conftest import make_gpu, simple_kernel


def test_resource_restore_event_standalone():
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=1)
    gpu.cus[1].disable()
    placements = []

    def body(ctx):
        placements.append(ctx.wg.cu.cu_id)
        yield from ctx.compute(30_000)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    ResourceRestoreEvent(at_us=5.0, cu_id=1).schedule(gpu)
    out = gpu.run()
    assert out.ok
    assert gpu.cus[1].enabled
    # the second WG ran on the re-enabled CU instead of queueing
    assert placements == [0, 1]


def test_spin_mutex_locked_inspection():
    gpu = make_gpu(awg())
    mutex = SpinMutex(gpu)

    def locked():
        return gpu.store.read(mutex.lock_addr) != 0

    assert not locked()
    holder = {}

    def body(ctx):
        token = yield from mutex.acquire(ctx)
        holder["locked_inside"] = locked()
        yield from mutex.release(ctx, token)

    gpu.launch(simple_kernel(body))
    assert gpu.run().ok
    assert holder["locked_inside"] is True
    assert not locked()


def test_outcome_ok_semantics():
    from repro.gpu.gpu import RunResult

    def outcome(completed, deadlocked, reason):
        return RunResult(benchmark="k", policy="p", cycles=1,
                         completed=completed, deadlocked=deadlocked,
                         reason=reason, context_switches=0,
                         wg_running_cycles=0, wg_waiting_cycles=0)

    good = outcome(True, False, "completed")
    bad = outcome(False, True, "watchdog")
    assert good.ok and not bad.ok


def test_scenario_params_roundtrip():
    from repro.experiments.runner import PAPER_SCALE

    params = PAPER_SCALE.params()
    assert params.total_wgs == PAPER_SCALE.total_wgs
    assert params.wgs_per_group == PAPER_SCALE.wgs_per_group
    cfg = PAPER_SCALE.config(l2_banks=4)
    assert cfg.l2_banks == 4
    assert cfg.max_wgs_per_cu == PAPER_SCALE.max_wgs_per_cu
