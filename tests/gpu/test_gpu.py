"""Unit tests for the top-level GPU device."""

import pytest

from repro.core.policies import awg, baseline

from tests.gpu.conftest import make_gpu, simple_kernel


def test_alloc_sync_vars_one_per_line(gpu):
    addrs = gpu.alloc_sync_vars(4)
    assert len(addrs) == 4
    lines = {a // 64 for a in addrs}
    assert len(lines) == 4
    assert all(a % 64 == 0 for a in addrs)


def test_run_with_no_work_completes(gpu):
    out = gpu.run()
    assert out.completed and not out.deadlocked
    assert out.cycles == 0


def test_multiple_launches_unique_ids(gpu):
    def body(ctx):
        yield from ctx.compute(10)

    l1 = gpu.launch(simple_kernel(body, grid_wgs=2))
    l2 = gpu.launch(simple_kernel(body, grid_wgs=2))
    assert l1.wg_ids == [0, 1]
    assert l2.wg_ids == [2, 3]
    out = gpu.run()
    assert out.ok and out.stats["progress.wg_done"] == 4


def test_outcome_stats_populated(gpu):
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        yield from ctx.atomic_add(addr, 1)
        yield from ctx.load(addr)
        yield from ctx.store(addr, 0)

    gpu.launch(simple_kernel(body))
    out = gpu.run()
    assert out.stats["device.atomics"] == 1
    assert out.stats["device.loads"] == 1
    assert out.stats["device.stores"] == 1
    assert out.stats["hierarchy.atomics"] >= 1
    assert "l2.hit_rate" in out.stats


def test_max_cycles_cap():
    gpu = make_gpu(awg(), max_cycles=5_000, deadlock_window=1_000_000)

    def body(ctx):
        yield from ctx.compute(100_000)

    gpu.launch(simple_kernel(body))
    out = gpu.run()
    assert out.deadlocked and out.reason == "max_cycles"


def test_watchdog_requires_progress():
    """A kernel that spins without progress events trips the watchdog."""
    gpu = make_gpu(baseline(), deadlock_window=20_000)
    addr = gpu.malloc(4, align=64)  # never set to 1

    def body(ctx):
        yield from ctx.wait_for_value(addr, 1)

    gpu.launch(simple_kernel(body))
    out = gpu.run()
    assert out.deadlocked and out.reason == "watchdog"


def test_progress_resets_watchdog(gpu):
    """Regular progress keeps long runs alive."""
    gpu = make_gpu(awg(), deadlock_window=5_000)

    def body(ctx):
        for _ in range(20):
            yield from ctx.compute(2_000)
            ctx.progress("tick")

    gpu.launch(simple_kernel(body))
    out = gpu.run()
    assert out.ok


def test_deterministic_across_runs():
    def once():
        gpu = make_gpu(awg())
        from repro.workloads import build_benchmark
        k = build_benchmark("SPM_G", gpu, total_wgs=4, wgs_per_group=2,
                            iterations=2)
        gpu.launch(k)
        out = gpu.run()
        return out.cycles, out.stats["device.atomics"]

    assert once() == once()


def test_wg_breakdown_sums(gpu):
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
        else:
            yield from ctx.compute(4_000)
            yield from ctx.atomic_store(addr, 1)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    out = gpu.run()
    assert out.ok
    assert out.wg_running_cycles > 0
    assert out.wg_waiting_cycles > 0
