"""Unit tests for the counting Bloom filter."""

import pytest

from repro.core.bloom import CountingBloomFilter
from repro.sim.rng import RngStream


@pytest.fixture
def filt():
    return CountingBloomFilter(bits=24, hashes=6, rng=RngStream(1, "bloom"))


def test_empty_contains_nothing(filt):
    assert not filt.contains(0)
    assert not filt.contains(12345)


def test_insert_then_contains(filt):
    assert filt.insert(42) is True
    assert filt.contains(42)


def test_duplicate_insert_not_counted(filt):
    filt.insert(7)
    assert filt.insert(7) is False
    assert filt.distinct_estimate == 1
    assert filt.insertions == 2


def test_distinct_estimate_tracks_uniques(filt):
    for v in (1, 2, 3, 2, 1):
        filt.insert(v)
    assert filt.distinct_estimate == 3


def test_no_false_negatives(filt):
    values = [v * 31 for v in range(10)]
    for v in values:
        filt.insert(v)
    assert all(filt.contains(v) for v in values)


def test_reset_clears(filt):
    for v in range(5):
        filt.insert(v)
    filt.reset()
    assert filt.distinct_estimate == 0
    assert not any(filt.counters)
    assert not filt.contains(0)


def test_remove_decrements(filt):
    filt.insert(9)
    filt.remove(9)
    assert filt.distinct_estimate == 0


def test_remove_absent_is_noop(filt):
    filt.insert(9)
    filt.remove(12345678)  # almost surely absent
    # the present element must survive
    assert filt.contains(9)


def test_saturation_grows(filt):
    def saturation():
        return sum(1 for c in filt.counters if c) / filt.bits

    s0 = saturation()
    filt.insert(1)
    assert saturation() > s0
    assert saturation() <= 1.0


def test_paper_false_positive_rate():
    """24 bits / 6 hashes: ~2.1% false positives for small n (paper §V.C).

    With n=2 inserted values the measured rate must be small."""
    rng = RngStream(7, "fp")
    trials = 0
    false_pos = 0
    for run in range(200):
        f = CountingBloomFilter(24, 6, RngStream(run, "f"))
        f.insert(1)
        f.insert(2)
        for probe in range(100, 150):
            trials += 1
            if f.contains(probe):
                false_pos += 1
    rate = false_pos / trials
    assert rate < 0.10  # generous bound around the paper's 2.1%


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        CountingBloomFilter(0, 6, RngStream(1, "x"))
    with pytest.raises(ValueError):
        CountingBloomFilter(24, 0, RngStream(1, "x"))
