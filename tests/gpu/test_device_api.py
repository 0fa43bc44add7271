"""Unit tests for the device API, driven by small custom kernels."""

import pytest

from repro.core.policies import awg, baseline, monnr_all, sleep, timeout
from repro.mem.atomics import AtomicOp

from tests.gpu.conftest import make_gpu, simple_kernel


def run_kernel(gpu, body, grid_wgs=1, **kwargs):
    kernel = simple_kernel(body, grid_wgs, **kwargs)
    gpu.launch(kernel)
    out = gpu.run()
    assert out.ok, out.reason
    return out


def test_compute_advances_time(gpu):
    def body(ctx):
        yield from ctx.compute(1000)

    out = run_kernel(gpu, body)
    assert out.cycles >= 1000


def test_load_store_roundtrip(gpu):
    addr = gpu.malloc(4)
    seen = []

    def body(ctx):
        yield from ctx.store(addr, 33)
        v = yield from ctx.load(addr)
        seen.append(v)

    run_kernel(gpu, body)
    assert seen == [33]


def test_atomic_sugar(gpu):
    addr = gpu.malloc(4, align=64)
    olds = []

    def body(ctx):
        olds.append((yield from ctx.atomic_add(addr, 5)))
        olds.append((yield from ctx.atomic_exch(addr, 9)))
        olds.append((yield from ctx.atomic_cas(addr, 9, 11)))
        olds.append((yield from ctx.atomic_load(addr)))
        olds.append((yield from ctx.atomic_sub(addr, 1)))

    run_kernel(gpu, body)
    assert olds == [0, 5, 9, 11, 11]
    assert gpu.store.read(addr) == 10


def test_lds_private_per_wg(gpu):
    results = {}

    def body(ctx):
        yield from ctx.lds_write(0, ctx.wg_id + 100)
        v = yield from ctx.lds_read(0)
        results[ctx.wg_id] = v

    run_kernel(gpu, body, grid_wgs=2)
    assert results == {0: 100, 1: 101}


def test_lds_read_default_zero(gpu):
    got = []

    def body(ctx):
        got.append((yield from ctx.lds_read(5)))

    run_kernel(gpu, body)
    assert got == [0]


def test_s_sleep_advances_time(gpu):
    def body(ctx):
        yield from ctx.s_sleep(5000)

    out = run_kernel(gpu, body)
    assert out.cycles >= 5000


def test_progress_feeds_watchdog(gpu):
    def body(ctx):
        ctx.progress("custom")
        yield from ctx.compute(1)

    run_kernel(gpu, body)
    assert gpu.stats.counter("progress.custom").value == 1


def test_wg_id_and_master(gpu):
    ids = []

    def body(ctx):
        ids.append((ctx.wg_id, ctx.is_master))
        yield from ctx.compute(1)

    run_kernel(gpu, body, grid_wgs=3)
    assert sorted(ids) == [(0, True), (1, True), (2, True)]


def test_sync_wait_immediate_success(gpu):
    addr = gpu.malloc(4, align=64)
    gpu.store.write(addr, 7)

    def body(ctx):
        res = yield from ctx.wait_for_value(addr, 7)
        assert res.success

    run_kernel(gpu, body)


def test_sync_wait_producer_consumer():
    for policy in (baseline(), sleep(4000), timeout(5000), monnr_all(), awg()):
        gpu = make_gpu(policy)
        addr = gpu.malloc(4, align=64)
        order = []

        def body(ctx, addr=addr, order=order):
            if ctx.wg_id == 0:
                yield from ctx.wait_for_value(addr, 1)
                order.append("consumed")
            else:
                yield from ctx.compute(3000)
                yield from ctx.atomic_store(addr, 1)
                order.append("produced")

        kernel = simple_kernel(body, grid_wgs=2)
        gpu.launch(kernel)
        out = gpu.run()
        assert out.ok, (policy.name, out.reason)
        assert order == ["produced", "consumed"], policy.name


def test_sync_wait_custom_predicate(gpu):
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(
                addr, expected=3, satisfied=lambda v: v >= 3)
        else:
            for _ in range(4):
                yield from ctx.compute(500)
                yield from ctx.atomic_add(addr, 1)

    run_kernel(gpu, body, grid_wgs=2)


def test_acquire_test_and_set(gpu):
    lock = gpu.malloc(4, align=64)

    def body(ctx):
        res = yield from ctx.acquire_test_and_set(lock)
        assert res.old == 0
        yield from ctx.atomic_exch(lock, 0)

    run_kernel(gpu, body)


def test_waiting_atomics_counted(gpu):
    addr = gpu.malloc(4, align=64)
    gpu.store.write(addr, 1)

    def body(ctx):
        yield from ctx.wait_for_value(addr, 1)

    run_kernel(gpu, body)
    assert gpu.stats.counter("device.waiting_atomics").value == 1
    assert gpu.stats.counter("device.atomics").value == 1


def test_wait_instr_counted():
    from repro.core.policies import monr_all
    gpu = make_gpu(monr_all())
    addr = gpu.malloc(4, align=64)

    def body(ctx):
        if ctx.wg_id == 0:
            yield from ctx.wait_for_value(addr, 1)
        else:
            yield from ctx.compute(2000)
            yield from ctx.atomic_store(addr, 1)

    kernel = simple_kernel(body, grid_wgs=2)
    gpu.launch(kernel)
    assert gpu.run().ok
    assert gpu.stats.counter("device.wait_instrs").value >= 1


def test_op_outside_residency_raises(gpu):
    from repro.errors import DeviceError
    from repro.gpu.device_api import WavefrontCtx
    from repro.gpu.workgroup import WorkGroup
    from repro.sim.process import Process

    kernel = simple_kernel(lambda ctx: iter(()))
    wg = WorkGroup(gpu, kernel, 0)
    ctx = WavefrontCtx(gpu, wg, 0, gpu.cus[0].simds[0])
    addr = gpu.malloc(4)
    for op in (ctx.load(addr), ctx.store(addr, 1), ctx.atomic_add(addr)):
        # bound as Wavefront.start binds it: the op's issue slot resumes
        # this process, and the op raises past it
        ctx._resume = Process(gpu.env, op)._resume
        with pytest.raises(DeviceError, match="while not resident"):
            gpu.env.run()


def test_plain_ops_build_no_event(gpu, monkeypatch):
    """A load, a store and an atomic each have one waiter, so their issue
    slot and memory reply resume the wavefront directly: none of them
    constructs an Event."""
    from repro.sim.events import Event

    built = []
    init = Event.__init__

    def counting_init(self, env):
        built.append(type(self).__name__)
        init(self, env)

    monkeypatch.setattr(Event, "__init__", counting_init)
    addr = gpu.malloc(4, align=64)
    during_ops = []

    def body(ctx):
        before = len(built)
        yield from ctx.load(addr)
        yield from ctx.store(addr, 1)
        yield from ctx.atomic_add(addr)
        during_ops.append(built[before:])

    run_kernel(gpu, body)
    assert during_ops == [[]]
    assert built  # the counter saw the Events outside the ops
