"""Integration: the wait-efficiency ladder (Figure 9's mechanism) and
the race window of wait-instruction policies."""

from repro.core.policies import (
    awg, baseline, minresume, monnr_all, monr_all, monrs_all,
)
from repro.experiments.runner import QUICK_SCALE, run_benchmark


def atomics_for(policy, bench="SPM_G"):
    return run_benchmark(bench, policy, QUICK_SCALE).atomics


def test_efficiency_ladder_on_contended_mutex():
    """baseline >> sporadic >= checked >= oracle in dynamic atomics."""
    base = atomics_for(baseline())
    sporadic = atomics_for(monrs_all())
    checked = atomics_for(monnr_all())
    oracle = atomics_for(minresume())
    assert base > sporadic
    assert sporadic > checked * 0.9
    assert checked > oracle * 0.9
    assert base > 5 * oracle


def test_awg_close_to_oracle():
    awg_atomics = atomics_for(awg())
    oracle = atomics_for(minresume())
    assert awg_atomics <= 3 * oracle


def test_race_window_costs_time_not_correctness():
    """MonR-All (wait instruction) has the §IV.C window of vulnerability:
    it must still complete (backstop) and never corrupt data."""
    res = run_benchmark("SLM_G", monr_all(backstop=30_000), QUICK_SCALE)
    assert res.ok


def test_waiting_atomics_register_atomically():
    """MonNR policies never need the backstop on the decentralized ticket
    lock: no wakeups are lost, so runtime stays far below backstop-bound
    behaviour."""
    racy = run_benchmark("SLM_G", monr_all(backstop=60_000), QUICK_SCALE)
    racefree = run_benchmark("SLM_G", monnr_all(backstop=60_000), QUICK_SCALE)
    assert racefree.ok and racy.ok
    assert racefree.cycles <= racy.cycles
