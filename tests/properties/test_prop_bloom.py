"""Property-based tests for the counting Bloom filter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import CountingBloomFilter
from repro.sim.rng import RngStream

values = st.integers(min_value=-(2**31), max_value=2**31 - 1)


def fresh(seed=1):
    return CountingBloomFilter(24, 6, RngStream(seed, "prop"))


@given(st.lists(values, max_size=30))
@settings(max_examples=60)
def test_no_false_negatives(inserted):
    f = fresh()
    for v in inserted:
        f.insert(v)
    assert all(f.contains(v) for v in inserted)


@given(st.lists(values, max_size=30))
@settings(max_examples=60)
def test_distinct_estimate_bounded_by_true_distinct(inserted):
    """False positives can only UNDER-estimate distinct count."""
    f = fresh()
    for v in inserted:
        f.insert(v)
    assert f.distinct_estimate <= len(set(inserted))


@given(st.lists(values, max_size=30))
@settings(max_examples=60)
def test_reset_restores_empty_state(inserted):
    f = fresh()
    for v in inserted:
        f.insert(v)
    f.reset()
    assert f.distinct_estimate == 0
    assert not any(f.counters)


@given(st.lists(values, min_size=1, max_size=20), st.integers(0, 19))
@settings(max_examples=60)
def test_remove_preserves_others(inserted, idx):
    f = fresh()
    distinct = list(dict.fromkeys(inserted))
    for v in distinct:
        f.insert(v)
    victim = distinct[idx % len(distinct)]
    f.remove(victim)
    for v in distinct:
        if v != victim:
            assert f.contains(v)


@given(st.lists(values, max_size=40))
@settings(max_examples=40)
def test_counters_never_negative(ops):
    f = fresh()
    for i, v in enumerate(ops):
        if i % 3 == 2:
            f.remove(v)
        else:
            f.insert(v)
    assert all(c >= 0 for c in f.counters)
