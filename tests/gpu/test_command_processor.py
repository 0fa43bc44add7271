"""Unit tests for the CP firmware: spills, drains, periodic checks."""

from repro.core.policies import monnr_all
from repro.core.syncmon import RegisterOutcome
from repro.trace.config import TraceConfig

from tests.gpu.conftest import make_gpu, simple_kernel


def spilly_gpu():
    """A GPU whose SyncMon can cache almost nothing, forcing the Monitor
    Log / CP slow path."""
    return make_gpu(
        monnr_all(),
        num_cus=2, max_wgs_per_cu=4,
        syncmon_sets=1, syncmon_assoc=1,
        monitor_log_entries=64,
        cp_check_interval=500,
    )


def test_spilled_condition_resumed_by_cp():
    gpu = spilly_gpu()
    a = gpu.malloc(4, align=64)
    b = gpu.malloc(4, align=64)
    done = []

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(a, 1)
            done.append("a")
        elif ctx.wg_id == 1:
            yield from ctx.wait_for_value(b, 1)  # spills (cache holds 1)
            done.append("b")
        else:
            yield from ctx.compute(3000)
            yield from ctx.atomic_store(a, 1)
            yield from ctx.atomic_store(b, 1)

    gpu.launch(simple_kernel(body, grid_wgs=3))
    out = gpu.run()
    assert out.ok
    assert sorted(done) == ["a", "b"]
    assert out.stats["log.appends"] == out.stats["syncmon.spills"] >= 1
    assert gpu.cp.spilled_resumes >= 1


def test_log_full_busy_retry():
    gpu = make_gpu(
        monnr_all(),
        num_cus=2, max_wgs_per_cu=4,
        syncmon_sets=1, syncmon_assoc=1,
        monitor_log_entries=1,
        cp_check_interval=400,
        log_full_retry=100,
    )
    addrs = [gpu.malloc(4, align=64) for _ in range(4)]
    done = []

    def body(ctx):
        if ctx.wg_id < 3:
            yield from ctx.wait_for_value(addrs[ctx.wg_id], 1)
            done.append(ctx.wg_id)
        else:
            yield from ctx.compute(5000)
            for a in addrs[:3]:
                yield from ctx.atomic_store(a, 1)

    gpu.launch(simple_kernel(body, grid_wgs=4))
    out = gpu.run()
    assert out.ok
    assert sorted(done) == [0, 1, 2]
    assert gpu.syncmon.log_full_events >= 1


def test_context_save_restore_accounting():
    gpu = make_gpu(monnr_all(), num_cus=1, max_wgs_per_cu=1)
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
        else:
            yield from ctx.atomic_store(addr, 1)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    assert gpu.run().ok
    assert gpu.stats.counter("cp.context_saves").value >= 1
    assert gpu.stats.counter("cp.context_restores").value >= 1
    assert (gpu.stats.counter("cp.context_saves").value
            == gpu.stats.counter("cp.context_restores").value)
    assert gpu.cp.arena.current_bytes == 0


def test_datastructure_bytes_nonzero_after_waiting():
    gpu = make_gpu(monnr_all())
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
        else:
            yield from ctx.compute(2000)
            yield from ctx.atomic_store(addr, 1)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    assert gpu.run().ok
    sizes = gpu.cp.datastructure_bytes()
    assert sizes["waiting_conditions"] > 0
    assert sizes["monitored_addresses"] > 0
    assert sizes["waiting_wgs"] > 0


def test_cp_tick_does_nothing_when_idle():
    gpu = make_gpu(trace=TraceConfig(categories=("cp",)))

    def body(ctx):
        yield from ctx.compute(10_000)

    gpu.launch(simple_kernel(body))
    assert gpu.run().ok
    # no log parse, spilled check or context switch: the CP never traced
    assert gpu.tracer.events() == []
    assert gpu.cp.peak_spilled_conditions == 0
