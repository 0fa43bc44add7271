"""Unit tests for AWG's resume-count and stall-time predictors."""

import itertools

import pytest

from repro.core.bloom import CountingBloomFilter
from repro.core.hashing import UniversalHash
from repro.core.policies import awg, baseline, monnr_one, monr_all, timeout
from repro.core.predictor import ResumeDecision, ResumePredictor, StallTimePredictor
from repro.experiments.runner import QUICK_SCALE, run_benchmark
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU
from repro.sim.rng import RngStream


@pytest.fixture
def pred():
    return ResumePredictor(filter_count=512, bits=24, hashes=6,
                           rng=RngStream(1, "pred"))


ADDR = 0x4000


def test_barrier_pattern_predicts_all(pred):
    """Many waiters + many unique updates (a counting barrier) -> ALL."""
    for v in range(1, 8):
        pred.record_update(ADDR, v)
    assert pred.predict(ADDR, num_waiters=7) is ResumeDecision.ALL


def test_mutex_pattern_predicts_one(pred):
    """Many waiters + a toggling lock word (two unique values) -> ONE."""
    pred.record_update(ADDR, 1)
    pred.record_update(ADDR, 0)
    pred.record_update(ADDR, 1)
    pred.record_update(ADDR, 0)
    assert pred.unique_updates(ADDR) == 2
    assert pred.predict(ADDR, num_waiters=10) is ResumeDecision.ONE


def test_single_waiter_predicts_all(pred):
    pred.record_update(ADDR, 1)
    assert pred.predict(ADDR, num_waiters=1) is ResumeDecision.ALL


def test_exactly_three_uniques_is_all(pred):
    for v in (1, 2, 3):
        pred.record_update(ADDR, v)
    assert pred.predict(ADDR, num_waiters=2) is ResumeDecision.ALL


def test_release_resets_filter(pred):
    for v in range(1, 8):
        pred.record_update(ADDR, v)
    pred.release(ADDR)
    assert pred.unique_updates(ADDR) == 0
    pred.record_update(ADDR, 1)
    pred.record_update(ADDR, 0)
    assert pred.predict(ADDR, num_waiters=5) is ResumeDecision.ONE


def test_distinct_addresses_do_not_interfere(pred):
    a, b = 0x4000, 0x8000
    for v in range(1, 10):
        pred.record_update(a, v)
    pred.record_update(b, 1)
    assert pred.unique_updates(b) <= 2


def test_prediction_counters(pred):
    for v in range(1, 8):
        pred.record_update(ADDR, v)
    assert pred.predict(ADDR, 5) is ResumeDecision.ALL
    pred.release(ADDR)
    pred.record_update(ADDR, 1)
    assert pred.predict(ADDR, 5) is ResumeDecision.ONE


# -- filters built on first use ------------------------------------------------

class _EagerReference:
    """All 512 filters built up front, each from its ``bloom{i}`` stream."""

    def __init__(self, rng):
        self.filters = [CountingBloomFilter(24, 6, rng.child(f"bloom{i}"))
                        for i in range(512)]
        self.index = UniversalHash(512, rng.child("bloom-index"))
        self.live = {}

    def record_update(self, addr, value):
        novel = self.filters[self.index(addr)].insert(value)
        if novel:
            self.live[addr] = self.live.get(addr, 0) + 1
        return novel

    def release(self, addr):
        self.live.pop(addr, None)
        self.filters[self.index(addr)].reset()


@pytest.mark.parametrize("seed", [1, 2, 7, 42])
def test_lazy_filters_match_eager_reference(seed):
    lazy = ResumePredictor(512, 24, 6, RngStream(seed, "pred"))
    ref = _EagerReference(RngStream(seed, "pred"))
    addrs = [0x1000 + 64 * k for k in range(300)]
    # addresses sharing a filter with the first one: updates alias
    addrs += itertools.islice((a for a in itertools.count(0x80000, 64)
                               if ref.index(a) == ref.index(addrs[0])), 4)
    gen = RngStream(seed, "updates")
    for step in range(3000):
        addr = gen.choice(addrs)
        value = gen.randint(0, 12)
        ref_novel = ref.record_update(addr, value)
        before = lazy.unique_updates(addr)
        lazy.record_update(addr, value)
        assert (lazy.unique_updates(addr) > before) == ref_novel
        assert lazy.unique_updates(addr) == ref.live.get(addr, 0)
        waiters = gen.randint(1, 4)
        expect = (ResumeDecision.ONE
                  if waiters > 1 and ref.live.get(addr, 0) <= 2
                  else ResumeDecision.ALL)
        assert lazy.predict(addr, waiters) is expect
        if step % 7 == 0:
            gone = gen.choice(addrs)
            lazy.release(gone)
            ref.release(gone)
    assert 0 < len(lazy.filters) <= len(addrs)


def test_fresh_gpu_builds_no_filters():
    gpu = GPU(GPUConfig(), awg())
    assert len(gpu.syncmon.predictor.filters) == 0


@pytest.mark.parametrize("policy", [baseline, timeout, monnr_one, monr_all])
def test_non_awg_policies_build_no_filters(policy):
    res = run_benchmark("SPM_G", policy(), QUICK_SCALE, keep_gpu=True)
    assert res.ok
    assert len(res.gpu.syncmon.predictor.filters) == 0


def test_awg_builds_at_most_one_filter_per_updated_address(monkeypatch):
    updated = set()
    record = ResumePredictor.record_update

    def spy(self, addr, value):
        updated.add(addr)
        record(self, addr, value)

    monkeypatch.setattr(ResumePredictor, "record_update", spy)
    res = run_benchmark("SPM_G", awg(), QUICK_SCALE, keep_gpu=True)
    assert res.ok
    built = len(res.gpu.syncmon.predictor.filters)
    assert 0 < built <= len(updated)


def test_release_of_unused_address_builds_no_filter(pred):
    pred.release(ADDR)
    assert len(pred.filters) == 0


# -- stall-time predictor -----------------------------------------------------

def test_stall_predictor_initial_value():
    sp = StallTimePredictor(initial=2_000)
    assert sp.predict() == 2_000


def test_stall_predictor_converges_to_mean():
    sp = StallTimePredictor()
    for _ in range(100):
        sp.record(5_000)
    assert sp.predict() == pytest.approx(5_000, rel=0.01)
    # predictions never exceed a few context-switch round-trips
    for _ in range(1000):
        sp.record(50_000)
    assert sp.predict() == sp.max_stall


def test_stall_predictor_clamps():
    sp = StallTimePredictor(min_stall=500, max_stall=50_000)
    for _ in range(10):
        sp.record(5)
    assert sp.predict() == 500
    for _ in range(1000):
        sp.record(10_000_000)
    assert sp.predict() == 50_000


def test_stall_predictor_running_mean():
    sp = StallTimePredictor(initial=0)
    sp.record(100)
    sp.record(300)
    assert sp.mean == pytest.approx(200)
    assert sp.count == 2
