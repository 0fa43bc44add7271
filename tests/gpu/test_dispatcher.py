"""Unit tests for the WG dispatcher."""

from repro.core.policies import awg, monnr_all
from repro.trace.config import TraceConfig

from tests.gpu.conftest import make_gpu, simple_kernel


def test_unique_wg_ids(gpu):
    def body(ctx):
        yield from ctx.compute(10)

    launch = gpu.launch(simple_kernel(body, grid_wgs=4))
    assert launch.wg_ids == [0, 1, 2, 3]
    assert [wg.wg_id for wg in gpu.wgs] == [0, 1, 2, 3]


def test_capacity_limits_residency():
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=2)
    resident_peak = []

    def body(ctx):
        resident_peak.append(
            sum(len(cu.resident) for cu in ctx.gpu.cus))
        yield from ctx.compute(1000)

    gpu.launch(simple_kernel(body, grid_wgs=10))
    assert gpu.run().ok
    assert max(resident_peak) <= 4


def test_pending_dispatch_when_wgs_finish():
    gpu = make_gpu(awg(), num_cus=1, max_wgs_per_cu=1)
    finish_order = []

    def body(ctx):
        yield from ctx.compute(100)
        finish_order.append(ctx.wg_id)

    gpu.launch(simple_kernel(body, grid_wgs=3))
    assert gpu.run().ok
    assert finish_order == [0, 1, 2]  # strictly serialized, oldest first


def test_least_loaded_cu_chosen():
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=4)
    placements = []

    def body(ctx):
        placements.append(ctx.wg.cu.cu_id)
        yield from ctx.compute(10_000)

    gpu.launch(simple_kernel(body, grid_wgs=4))
    assert gpu.run().ok
    # WGs spread across both CUs rather than stacking on one
    assert placements.count(0) == 2 and placements.count(1) == 2


def test_has_runnable_work(gpu):
    assert not gpu.dispatcher.has_runnable_work()

    def body(ctx):
        yield from ctx.compute(10)

    # launch more WGs than capacity: pending queue is non-empty
    gpu.launch(simple_kernel(body, grid_wgs=gpu.config.wg_capacity + 1))
    assert gpu.dispatcher.has_runnable_work()
    gpu.run()
    assert not gpu.dispatcher.has_runnable_work()


def test_notify_unknown_states_dropped():
    gpu = make_gpu(trace=TraceConfig(categories=("dispatch",)))

    def body(ctx):
        yield from ctx.compute(10)

    gpu.launch(simple_kernel(body))
    gpu.run()
    # notifying a DONE WG is harmless and traced as a drop; bound the
    # engine run because the CP tick reschedules itself forever
    gpu.dispatcher.notify_met([0], cause="test", stagger=0)
    gpu.env.run(until=gpu.env.now + 10_000)
    drops = [ev["args"] for ev in gpu.tracer.events() if ev["name"] == "drop"]
    assert drops == [{"wg": 0, "cause": "test", "state": "done"}]


def test_disabled_cu_not_used():
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=2)
    gpu.cus[1].disable()
    placements = []

    def body(ctx):
        placements.append(ctx.wg.cu.cu_id)
        yield from ctx.compute(10)

    gpu.launch(simple_kernel(body, grid_wgs=4))
    assert gpu.run().ok
    assert set(placements) == {0}


def test_ready_wgs_priority_over_pending():
    """A switched-out WG whose condition is met re-dispatches before a
    never-started pending WG (oldest-first)."""
    gpu = make_gpu(monnr_all(), num_cus=1, max_wgs_per_cu=1)
    addr = gpu.malloc(4, align=64)
    order = []

    def body(ctx):
        order.append(("start", ctx.wg_id))
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
            order.append(("resumed", 0))
        elif ctx.wg_id == 1:
            yield from ctx.atomic_store(addr, 1)
            # keep the slot busy until WG0's resume notification landed,
            # so the dispatch decision sees WG0 READY vs WG2 pending
            yield from ctx.compute(5_000)
        else:
            yield from ctx.compute(10)

    gpu.launch(simple_kernel(body, grid_wgs=3))
    assert gpu.run().ok
    assert order.index(("resumed", 0)) < order.index(("start", 2))
