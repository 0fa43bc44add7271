"""Unit tests for mid-run resource loss (the §VI oversubscribed event)."""

from repro.core.policies import awg, baseline, monnr_all
from repro.gpu.preemption import ResourceLossEvent, ResourceRestoreEvent

from tests.gpu.conftest import make_gpu, simple_kernel


def test_loss_disables_cu_and_evicts():
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=2)

    def body(ctx):
        yield from ctx.compute(50_000)

    gpu.launch(simple_kernel(body, grid_wgs=4))
    ResourceLossEvent(at_us=5, cu_id=1).schedule(gpu)
    out = gpu.run()
    assert out.ok
    assert not gpu.cus[1].enabled
    assert gpu.stats.counter("preemption.evictions").value == 2
    assert gpu.resource_loss_applied
    # the evicted WGs migrated and finished elsewhere
    assert all(wg.state.name == "DONE" for wg in gpu.wgs)


def test_default_cu_is_last():
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=2)

    def body(ctx):
        yield from ctx.compute(30_000)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    ResourceLossEvent(at_us=5).schedule(gpu)
    assert gpu.run().ok
    assert not gpu.cus[1].enabled
    assert gpu.cus[0].enabled


def test_running_wg_evicted_at_op_boundary():
    gpu = make_gpu(awg(), num_cus=1, max_wgs_per_cu=1)
    progress = []

    def body(ctx):
        for i in range(10):
            yield from ctx.compute(2_000)
            progress.append(i)

    gpu.launch(simple_kernel(body, grid_wgs=1))
    # evict, then bring the CU back so the WG can finish
    ResourceLossEvent(at_us=2, cu_id=0).schedule(gpu)
    ResourceRestoreEvent(at_us=8, cu_id=0).schedule(gpu)
    out = gpu.run()
    assert out.ok
    assert progress == list(range(10))
    assert gpu.wgs[0].context_switches >= 1


def test_stalled_waiter_evicted_then_resumed():
    gpu = make_gpu(monnr_all(), num_cus=2, max_wgs_per_cu=1)
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
        else:
            yield from ctx.compute(30_000)
            yield from ctx.atomic_store(addr, 1)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    # WG0 (waiter) runs on CU0; evict it while it is stalled
    ResourceLossEvent(at_us=5, cu_id=0).schedule(gpu)
    ResourceRestoreEvent(at_us=10, cu_id=0).schedule(gpu)
    out = gpu.run()
    assert out.ok
    assert gpu.wgs[0].context_switches >= 1


def test_baseline_deadlocks_when_lock_holder_evicted():
    """The paper's §VI deadlock: the evicted WG holds the FIFO ticket and
    busy-waiting residents never release their slots."""
    from repro.workloads import build_benchmark

    gpu = make_gpu(baseline(), num_cus=2, max_wgs_per_cu=2,
                   deadlock_window=150_000)
    kernel = build_benchmark("FAM_G", gpu, total_wgs=4, wgs_per_group=2,
                             iterations=10, work_cycles=10, cs_cycles=5_000)
    ResourceLossEvent(at_us=5, cu_id=1).schedule(gpu)
    gpu.launch(kernel)
    out = gpu.run()
    assert out.deadlocked
    assert out.reason in ("watchdog", "no_events", "max_cycles")


def test_awg_survives_the_same_loss():
    from repro.workloads import build_benchmark

    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=2,
                   deadlock_window=150_000)
    kernel = build_benchmark("FAM_G", gpu, total_wgs=4, wgs_per_group=2,
                             iterations=10, work_cycles=10, cs_cycles=5_000)
    ResourceLossEvent(at_us=5, cu_id=1).schedule(gpu)
    gpu.launch(kernel)
    out = gpu.run()
    assert out.ok
    kernel.args["validate"](gpu)


def test_deadlock_is_returned_as_a_diagnosis():
    from repro.workloads import build_benchmark

    gpu = make_gpu(baseline(), num_cus=2, max_wgs_per_cu=2,
                   deadlock_window=100_000)
    kernel = build_benchmark("FAM_G", gpu, total_wgs=4, wgs_per_group=2,
                             iterations=10, work_cycles=10, cs_cycles=5_000)
    ResourceLossEvent(at_us=5, cu_id=1).schedule(gpu)
    gpu.launch(kernel)
    out = gpu.run()
    assert out.deadlocked and not out.completed
    diag = out.diagnosis
    assert diag["kind"] == "deadlock"
    assert diag["reason"] == out.reason == "watchdog"
    assert diag["policy"] == "Baseline"
    assert diag["cycle"] == out.cycles > 0
    assert len(diag["stalls"]) == diag["total"] - diag["finished"] > 0
