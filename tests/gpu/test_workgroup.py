"""Unit tests for the WG state machine and the waiting protocol."""

import pytest

from repro.core.policies import awg, monnr_all, monnr_one, timeout
from repro.gpu.workgroup import RESIDENT_STATES, WGState

from tests.gpu.conftest import make_gpu, simple_kernel


def test_resident_states():
    assert WGState.RUNNING in RESIDENT_STATES
    assert WGState.STALLED in RESIDENT_STATES
    assert WGState.RESUMING in RESIDENT_STATES
    assert WGState.SWITCHED_OUT not in RESIDENT_STATES
    assert WGState.PENDING not in RESIDENT_STATES


def test_state_accounting_buckets(gpu):
    def body(ctx):
        yield from ctx.compute(1000)

    kernel = simple_kernel(body)
    gpu.launch(kernel)
    out = gpu.run()
    assert out.ok
    wg = gpu.wgs[0]
    assert wg.state is WGState.DONE
    assert wg.cycles_by_bucket["running"] >= 1000
    assert wg.cycles_by_bucket["waiting"] == 0


def test_waiting_time_accounted(gpu):
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
        else:
            yield from ctx.compute(5000)
            yield from ctx.atomic_store(addr, 1)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    assert gpu.run().ok
    waiter = gpu.wgs[0]
    assert waiter.cycles_by_bucket["waiting"] >= 3000
    assert waiter.wait_episodes >= 1


def test_timeout_policy_stall_retry_loop():
    """Under Timeout (non-oversubscribed), the waiter stalls for the
    interval and retries; total waits quantize to the interval."""
    gpu = make_gpu(timeout(2_000))
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
        else:
            yield from ctx.compute(7_000)
            yield from ctx.atomic_store(addr, 1)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    out = gpu.run()
    assert out.ok
    waiter = gpu.wgs[0]
    # ~7000 cycles of waiting at 2000/interval = at least 3 episodes
    assert waiter.wait_episodes >= 3
    assert gpu.wgs[0].context_switches == 0  # not oversubscribed


def test_oversubscribed_wait_context_switches():
    """With pending WGs, a monitor-policy waiter must yield its slot."""
    gpu = make_gpu(monnr_all(), num_cus=1, max_wgs_per_cu=1)
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            # resident first; waits for WG1 which cannot be dispatched
            yield from ctx.wait_for_value(addr, 1)
        else:
            yield from ctx.atomic_store(addr, 1)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    out = gpu.run()
    assert out.ok
    assert gpu.wgs[0].context_switches >= 1


def test_awg_stalls_before_switching():
    """AWG stalls the predicted period; a fast condition met while
    stalled avoids the context switch entirely."""
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=1)
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
        else:
            yield from ctx.compute(300)  # met well inside predicted stall
            yield from ctx.atomic_store(addr, 1)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    out = gpu.run()
    assert out.ok
    assert gpu.wgs[0].context_switches == 0


def test_mesa_semantics_recheck():
    """A waiter resumed by a timer whose condition is not met must wait
    again (no spurious progression)."""
    gpu = make_gpu(monnr_one(straggler_timeout=1_000))
    addr = gpu.malloc(4, align=64)
    observed = []

    def body(ctx):
        if ctx.wg_id == 0:
            res = yield from ctx.wait_for_value(addr, 2)
            observed.append(res.old)
        else:
            yield from ctx.compute(2_500)
            yield from ctx.atomic_store(addr, 1)  # wrong value
            yield from ctx.compute(2_500)
            yield from ctx.atomic_store(addr, 2)  # right value

    gpu.launch(simple_kernel(body, grid_wgs=2))
    out = gpu.run()
    assert out.ok
    assert observed == [2]
    assert gpu.wgs[0].wait_episodes >= 2  # straggler retries happened


def test_switch_out_and_back_preserves_execution(gpu):
    """A context-switched WG resumes exactly where it left off."""
    gpu = make_gpu(monnr_all(), num_cus=1, max_wgs_per_cu=1)
    addr = gpu.malloc(4, align=64)
    data = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.store(data, 5)
            yield from ctx.wait_for_value(addr, 1)
            v = yield from ctx.load(data)
            yield from ctx.store(data, v + 1)
        else:
            yield from ctx.atomic_store(addr, 1)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    assert gpu.run().ok
    assert gpu.store.read(data) == 6
    assert gpu.wgs[0].context_switches >= 1


def test_gate_parks_workers():
    """Worker wavefronts stop at the gate while the WG is switched out."""
    gpu = make_gpu(monnr_all(), num_cus=1, max_wgs_per_cu=1)
    addr = gpu.malloc(4, align=64)
    worker_ticks = []

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
            yield from ctx.syncthreads()
        else:
            yield from ctx.atomic_store(addr, 1)
            yield from ctx.syncthreads()

    def worker(ctx):
        yield from ctx.compute(10)
        worker_ticks.append(ctx.env.now)
        yield from ctx.syncthreads()

    kernel = simple_kernel(body, grid_wgs=2, wavefronts_per_wg=2,
                           worker_body=worker)
    gpu.launch(kernel)
    out = gpu.run()
    assert out.ok
    assert len(worker_ticks) == 2


def test_syncthreads_joins_wavefronts(gpu):
    order = []

    def body(ctx):
        yield from ctx.compute(100)
        yield from ctx.syncthreads()
        order.append(("master", ctx.env.now))

    def worker(ctx):
        yield from ctx.compute(2000)
        yield from ctx.syncthreads()
        order.append(("worker", ctx.env.now))

    kernel = simple_kernel(body, grid_wgs=1, wavefronts_per_wg=2,
                           worker_body=worker)
    gpu.launch(kernel)
    assert gpu.run().ok
    # both released at the same (post-2000) time
    assert len(order) == 2
    assert abs(order[0][1] - order[1][1]) == 0
    assert min(t for _n, t in order) >= 2000


def test_a_policy_without_a_backstop_never_backstops():
    # a monitor policy's timers come from its PolicySpec alone: without a
    # backstop, a switched-out waiter waits for a notify. MonR-All's race
    # window then loses wake-ups, as analysis.specs predicts (MAY_DEADLOCK).
    from dataclasses import replace

    from repro.cli import QUICK_OVERSUBSCRIBED
    from repro.core.policies import monr_all
    from repro.experiments import run_benchmark

    def run(policy):
        return run_benchmark("TB_LG", policy, QUICK_OVERSUBSCRIBED,
                             validate=False)

    with_backstop = run(monr_all())
    assert with_backstop.completed
    assert with_backstop.stats["wait.retry.backstop"] > 0
    without = run(replace(monr_all(), backstop_timeout=None))
    assert without.stats.get("wait.retry.backstop", 0) == 0
    assert without.deadlocked


def test_a_hardware_wait_without_monitor_or_interval_is_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="needs timeout_interval"):
        timeout().with_overrides(timeout_interval=None)
