"""Unit tests for the dispatcher's pick order: FIFO, ready before
pending, and the starvation bound on that preference."""

from repro.core.policies import awg
from repro.gpu.dispatcher import Dispatcher
from repro.trace.config import TraceConfig

from tests.gpu.conftest import make_gpu, simple_kernel


def test_dispatch_is_fifo():
    gpu = make_gpu(awg(), num_cus=1, max_wgs_per_cu=1)
    order = []

    def body(ctx):
        order.append(ctx.wg_id)
        yield from ctx.compute(50)

    gpu.launch(simple_kernel(body, grid_wgs=4))
    assert gpu.run().ok
    assert order == [0, 1, 2, 3]


def test_starvation_limit_bounds_ready_over_pending():
    """Two ready WGs that are re-woken as soon as they are placed (a
    self-sustaining resume storm) win the first STARVATION_LIMIT picks;
    the next pick is the oldest pending WG, traced as an override, and
    the count starts again from zero."""
    limit = Dispatcher.STARVATION_LIMIT
    gpu = make_gpu(awg(), trace=TraceConfig(categories=("dispatch",)))

    def body(ctx):
        yield from ctx.compute(10)

    gpu.launch(simple_kernel(body, grid_wgs=4))
    dispatcher = gpu.dispatcher
    storm = gpu.wgs[:2]
    dispatcher.pending.clear()
    dispatcher.pending.extend(gpu.wgs[2:])
    dispatcher.ready.extend(storm)

    picks = []
    for _ in range(2 * (limit + 1)):
        wg = dispatcher._select()
        picks.append(wg.wg_id)
        if wg in storm:
            dispatcher.ready.append(wg)
        else:
            assert dispatcher._pending_passovers == 0

    assert set(picks[:limit]) == {0, 1}
    assert picks[limit] == 2
    assert set(picks[limit + 1:2 * limit + 1]) == {0, 1}
    assert picks[2 * limit + 1] == 3
    overrides = [ev["args"] for ev in gpu.tracer.events()
                 if ev["name"] == "starvation-override"]
    assert overrides == [{"wg": 2}, {"wg": 3}]


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
