"""Correctness tests for the mutex primitives under every policy.

The critical section uses a non-atomic read-modify-write, so any
mutual-exclusion violation shows up as lost updates.
"""

import pytest

from repro.core.policies import (
    awg, baseline, minresume, monnr_all, monnr_one, monr_all, monrs_all,
    sleep, timeout,
)
from repro.errors import DeviceError
from repro.sync.mutex import FAMutex, SleepMutex, SpinMutex

from tests.gpu.conftest import make_gpu, simple_kernel

ALL_POLICIES = [
    baseline(), sleep(4_000), timeout(5_000), monrs_all(backstop=30_000),
    monr_all(backstop=30_000), monnr_all(), monnr_one(straggler_timeout=5_000),
    minresume(), awg(),
]


def exercise_mutex(policy, mutex_factory, wgs=6, iterations=3):
    gpu = make_gpu(policy, num_cus=2, max_wgs_per_cu=4)
    mutex = mutex_factory(gpu, wgs)
    data = gpu.malloc(4, align=64)
    in_cs = gpu.malloc(4, align=64)
    violations = []

    def body(ctx):
        for _ in range(iterations):
            yield from ctx.compute(100 + 37 * ctx.wg_id)
            token = yield from mutex.acquire(ctx)
            # detect overlapping critical sections directly
            depth = yield from ctx.load(in_cs)
            if depth != 0:
                violations.append(ctx.wg_id)
            yield from ctx.store(in_cs, 1)
            v = yield from ctx.load(data)
            yield from ctx.compute(80)
            yield from ctx.store(data, v + 1)
            yield from ctx.store(in_cs, 0)
            yield from mutex.release(ctx, token)
            ctx.progress("cs")

    gpu.launch(simple_kernel(body, grid_wgs=wgs))
    out = gpu.run()
    assert out.ok, (policy.name, out.reason)
    assert violations == [], f"{policy.name}: overlapping critical sections"
    assert gpu.store.read(data) == wgs * iterations
    return gpu, mutex


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
def test_spin_mutex_exclusion(policy):
    gpu, mutex = exercise_mutex(policy, lambda g, n: SpinMutex(g))
    assert gpu.store.read(mutex.lock_addr) == 0  # released


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
def test_spin_mutex_backoff_exclusion(policy):
    exercise_mutex(policy, lambda g, n: SpinMutex(g, backoff=True))


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
def test_fa_mutex_exclusion(policy):
    exercise_mutex(policy, lambda g, n: FAMutex(g))


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
def test_sleep_mutex_exclusion(policy):
    exercise_mutex(policy, lambda g, n: SleepMutex(g, queue_slots=n + 2))


def test_fa_mutex_fifo_order():
    """Ticket locks grant the lock in ticket order."""
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=4)
    mutex = FAMutex(gpu)
    grants = []

    def body(ctx):
        yield from ctx.compute(10 * ctx.wg_id)
        ticket = yield from mutex.acquire(ctx)
        grants.append(ticket)
        yield from ctx.compute(200)
        yield from mutex.release(ctx, ticket)

    gpu.launch(simple_kernel(body, grid_wgs=6))
    assert gpu.run().ok
    assert grants == sorted(grants)


def test_sleep_mutex_fifo_order():
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=4)
    mutex = SleepMutex(gpu, queue_slots=10)
    grants = []

    def body(ctx):
        yield from ctx.compute(10 * ctx.wg_id)
        ticket = yield from mutex.acquire(ctx)
        grants.append(ticket)
        yield from ctx.compute(200)
        yield from mutex.release(ctx, ticket)

    gpu.launch(simple_kernel(body, grid_wgs=6))
    assert gpu.run().ok
    assert grants == sorted(grants)


def test_sleep_mutex_ring_reuse():
    """More total acquisitions than queue slots: the ring wraps safely as
    long as slots exceed concurrent lockers."""
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=2)
    mutex = SleepMutex(gpu, queue_slots=6)
    data = gpu.malloc(4, align=64)

    def body(ctx):
        for _ in range(5):  # 4 WGs x 5 = 20 acquisitions > 6 slots
            token = yield from mutex.acquire(ctx)
            v = yield from ctx.load(data)
            yield from ctx.store(data, v + 1)
            yield from mutex.release(ctx, token)
            ctx.progress("cs")

    gpu.launch(simple_kernel(body, grid_wgs=4))
    assert gpu.run().ok
    assert gpu.store.read(data) == 20


def test_sleep_mutex_needs_two_slots():
    gpu = make_gpu()
    with pytest.raises(DeviceError):
        SleepMutex(gpu, queue_slots=1)


def test_home_addr_is_contended_line():
    gpu = make_gpu()
    spm = SpinMutex(gpu)
    assert spm.home_addr == spm.lock_addr
    fam = FAMutex(gpu)
    assert fam.home_addr == fam.serving_addr
    slm = SleepMutex(gpu, queue_slots=4)
    assert slm.home_addr == slm.tail_addr


# -- lock discipline: structural misuse raises a structured DeviceError -------

MUTEX_FACTORIES = [
    pytest.param(lambda g: SpinMutex(g), id="SpinMutex"),
    pytest.param(lambda g: FAMutex(g), id="FAMutex"),
    pytest.param(lambda g: SleepMutex(g, queue_slots=4), id="SleepMutex"),
]


def _run_misuse(mutex_factory, body_of):
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=2)
    mutex = mutex_factory(gpu)
    gpu.launch(simple_kernel(body_of(mutex), grid_wgs=1))
    with pytest.raises(DeviceError) as exc:
        gpu.run()
    return mutex, exc.value


@pytest.mark.parametrize("mutex_factory", MUTEX_FACTORIES)
def test_release_without_acquire_raises(mutex_factory):
    def body_of(mutex):
        def body(ctx):
            yield from ctx.compute(10)
            yield from mutex.release(ctx, 0)

        return body

    mutex, err = _run_misuse(mutex_factory, body_of)
    msg = str(err)
    assert "release-without-acquire" in msg
    assert "WG0" in msg
    assert f"0x{mutex.home_addr:x}" in msg


@pytest.mark.parametrize("mutex_factory", MUTEX_FACTORIES)
def test_double_release_raises(mutex_factory):
    def body_of(mutex):
        def body(ctx):
            token = yield from mutex.acquire(ctx)
            yield from mutex.release(ctx, token)
            yield from mutex.release(ctx, token)

        return body

    _, err = _run_misuse(mutex_factory, body_of)
    assert "release-without-acquire" in str(err)


def test_release_by_non_holder_raises():
    gpu = make_gpu(awg(), num_cus=2, max_wgs_per_cu=2)
    mutex = SpinMutex(gpu)

    def body(ctx):
        if ctx.grid_index == 0:
            yield from mutex.acquire(ctx)
            yield from ctx.compute(5_000)
            yield from mutex.release(ctx)
        else:
            yield from ctx.compute(500)
            # WG1 releases a lock WG0 holds
            yield from mutex.release(ctx)

    gpu.launch(simple_kernel(body, grid_wgs=2))
    with pytest.raises(DeviceError, match="release-by-non-holder"):
        gpu.run()


def test_correct_use_never_trips_the_discipline_check():
    gpu, mutex = exercise_mutex(awg(), lambda g, n: SpinMutex(g))
    assert mutex._holder is None
