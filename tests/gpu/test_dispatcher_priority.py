"""Unit tests for priority selection and kernel-suspension freezing in
the dispatcher."""

from repro.core.policies import awg

from tests.gpu.conftest import make_gpu, simple_kernel


def named_kernel(name, cycles, grid_wgs):
    def body(ctx):
        yield from ctx.compute(cycles)

    k = simple_kernel(body, grid_wgs=grid_wgs)
    k.name = name
    return k


def test_higher_priority_pending_dispatches_first():
    gpu = make_gpu(awg(), num_cus=1, max_wgs_per_cu=1)
    start_order = []

    def body(ctx):
        start_order.append(ctx.wg.priority)
        yield from ctx.compute(100)

    k1 = simple_kernel(body, grid_wgs=2)
    k2 = simple_kernel(body, grid_wgs=2)
    gpu.launch(k1)
    gpu.launch(k2)
    # bump the second kernel's WGs before anything dispatches
    for wg_id in (2, 3):
        gpu.wgs[wg_id].priority = 9
    out = gpu.run()
    assert out.ok
    # the single slot serves the high-priority WGs first
    assert start_order == [9, 9, 0, 0]


def test_equal_priority_is_fifo():
    gpu = make_gpu(awg(), num_cus=1, max_wgs_per_cu=1)
    order = []

    def body(ctx):
        order.append(ctx.wg_id)
        yield from ctx.compute(50)

    gpu.launch(simple_kernel(body, grid_wgs=4))
    assert gpu.run().ok
    assert order == [0, 1, 2, 3]


def test_suspended_wgs_frozen_not_dispatched():
    gpu = make_gpu(awg(), num_cus=1, max_wgs_per_cu=1)
    started = []

    def body(ctx):
        started.append(ctx.wg_id)
        yield from ctx.compute(100)

    gpu.launch(simple_kernel(body, grid_wgs=3))
    # freeze WG2 before it ever starts
    gpu.wgs[2].kernel_suspended = True
    gpu.env.run(until=5_000)
    assert 2 not in started
    assert gpu.wgs[2] in gpu.dispatcher._frozen
    # thaw it via the kernel-level requeue path
    gpu.wgs[2].kernel_suspended = False
    gpu.dispatcher.requeue(gpu.wgs[2])
    out = gpu.run()
    assert out.ok
    assert started == [0, 1, 2]


def test_requeue_idempotent_for_pending():
    gpu = make_gpu(awg(), num_cus=1, max_wgs_per_cu=1)

    def body(ctx):
        yield from ctx.compute(10)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    wg = gpu.wgs[1]
    gpu.dispatcher.requeue(wg)  # already pending: must not duplicate
    out = gpu.run()
    assert out.ok
    assert out.stats["progress.wg_done"] == 2
