"""Differential testing across every shipped benchmark and policy.

One oversubscribed, resource-loss scenario is simulated for every
(benchmark, policy) cell, and the suite asserts the cross-policy
invariants that define the policy table:

* Baseline deadlocks on every benchmark (the scenario is engineered to
  oversubscribe after a CU loss), while every IFP-providing policy
  finishes the same run.
* The MonNR family has no window of vulnerability, so on the
  centralized benchmarks no vulnerable-wait backstop timer ever fires.
  The decentralized tree barriers are the documented exception: a CU
  loss can evict a WG while a notify is in flight, the dispatcher drops
  the notify, and the backstop legitimately recovers it -- removing the
  backstop there deadlocks MonNR-All/MinResume, so the suite asserts
  the retries stay bounded instead of zero.
* AWG's predicted resume never wakes more WGs than the resume-all
  monitor policies on the centralized benchmarks.  (On tree barriers
  every condition has a single waiter, so resume-one == resume-all and
  AWG's straggler rescues push it slightly above; excluded by design.)
* Every policy that completes leaves bit-identical final memory --
  scheduling may differ, results may not.
* The static analyzer's 96-cell table is sound against these runs: no
  MUST_COMPLETE cell deadlocks. (That the table agrees with DESIGN.md's
  IFP column is checked in ``tests/analysis/test_analyzer.py``.)
"""

from __future__ import annotations

import pytest

from repro.analysis.analyzer import build_report
from repro.analysis.specs import MUST_COMPLETE, table_policies
from repro.experiments import QUICK_SCALE, run_benchmark
from repro.workloads.registry import benchmark_names

#: oversubscription after CU loss: 8 WGs, 1 slot per CU, one CU lost
#: mid-run.  Baseline deadlocks on every benchmark at this scale; all
#: 96 cells simulate in ~10 s in-process.
SCENARIO = QUICK_SCALE.scaled(
    total_wgs=8,
    wgs_per_group=4,
    max_wgs_per_cu=1,
    iterations=1,
    episodes=4,
    resource_loss_at_us=0.5,
    deadlock_window=100_000,
    label="differential",
)

POLICIES = table_policies()
POLICY_BY_NAME = {p.name: p for p in POLICIES}
IFP_NAMES = [p.name for p in POLICIES if p.provides_ifp]

BENCHMARKS = benchmark_names()
#: decentralized primitives: one waiter per condition, and the only
#: benchmarks where an eviction-time notify drop makes the backstop
#: timer load-bearing (see module docstring).
TREE_BARRIERS = frozenset({"TB_LG", "LFTB_LG", "TBEX_LG", "LFTBEX_LG"})
CENTRALIZED = [b for b in BENCHMARKS if b not in TREE_BARRIERS]

#: MonNR-All/MinResume need 7-8 backstop recoveries per tree-barrier
#: run at this scale; anything past this bound is a regression.
TREE_BACKSTOP_BOUND = 16

MONITOR_NONRACY = ["MonNR-All", "MonNR-One", "AWG", "MinResume"]
RESUME_ALL_MONITORS = ["MonRS-All", "MonR-All", "MonNR-All"]


@pytest.fixture(scope="module")
def matrix():
    """Every (benchmark, policy) RunResult, GPUs kept for memory diffs."""
    cells = {}
    for bench in BENCHMARKS:
        for policy in POLICIES:
            cells[(bench, policy.name)] = run_benchmark(
                bench, policy, SCENARIO, validate=False, keep_gpu=True
            )
    return cells


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_baseline_deadlocks(matrix, bench):
    result = matrix[(bench, "Baseline")]
    assert result.deadlocked, (
        f"{bench}: Baseline completed an oversubscribed run it must "
        f"deadlock on ({result.reason})"
    )


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("policy", IFP_NAMES)
def test_ifp_policies_finish(matrix, bench, policy):
    result = matrix[(bench, policy)]
    assert result.ok, (
        f"{bench}/{policy}: IFP-providing policy failed the run Baseline "
        f"deadlocks on: {result.reason}"
    )


@pytest.mark.parametrize("bench", CENTRALIZED)
@pytest.mark.parametrize("policy", MONITOR_NONRACY)
def test_no_backstop_on_centralized(matrix, bench, policy):
    fired = matrix[(bench, policy)].stats.get("wait.retry.backstop", 0)
    assert fired == 0, (
        f"{bench}/{policy}: non-racy monitor policy hit the "
        f"vulnerable-wait backstop {fired} times; its registration "
        f"ordering is supposed to make lost notifies impossible here"
    )


@pytest.mark.parametrize("bench", sorted(TREE_BARRIERS))
@pytest.mark.parametrize("policy", MONITOR_NONRACY)
def test_tree_barrier_backstop_bounded(matrix, bench, policy):
    fired = matrix[(bench, policy)].stats.get("wait.retry.backstop", 0)
    assert fired <= TREE_BACKSTOP_BOUND, (
        f"{bench}/{policy}: {fired} backstop recoveries exceeds the "
        f"eviction-drop budget ({TREE_BACKSTOP_BOUND}); notify delivery "
        f"or the retry path regressed"
    )


@pytest.mark.parametrize("bench", CENTRALIZED)
@pytest.mark.parametrize("other", RESUME_ALL_MONITORS)
def test_awg_resumes_no_more_than_resume_all(matrix, bench, other):
    awg_resumes = matrix[(bench, "AWG")].stats.get("syncmon.resumed_wgs", 0)
    all_resumes = matrix[(bench, other)].stats.get("syncmon.resumed_wgs", 0)
    assert awg_resumes <= all_resumes, (
        f"{bench}: AWG resumed {awg_resumes} WGs but {other} resumed "
        f"only {all_resumes}; the resume predictor is waking WGs a "
        f"resume-all policy would not"
    )


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_final_memory_identical(matrix, bench):
    memories = {
        policy.name: dict(matrix[(bench, policy.name)].gpu.store.words())
        for policy in POLICIES
        if matrix[(bench, policy.name)].ok
    }
    assert len(memories) >= 2, f"{bench}: not enough completing policies"
    names = sorted(memories)
    reference = memories[names[0]]
    for name in names[1:]:
        theirs = memories[name]
        diffs = sorted(
            addr
            for addr in set(reference) | set(theirs)
            if reference.get(addr, 0) != theirs.get(addr, 0)
        )
        assert not diffs, (
            f"{bench}: {names[0]} and {name} completed with different "
            f"final memory at {len(diffs)} addresses "
            f"(first: {[hex(a) for a in diffs[:5]]})"
        )


def test_static_table_is_sound_against_the_matrix(matrix):
    """No statically MUST_COMPLETE cell deadlocked here: a static
    verdict may be pessimistic, never unsound."""
    verdicts = build_report(BENCHMARKS).verdicts
    assert set(verdicts) == set(matrix)
    for key, verdict in sorted(verdicts.items()):
        result = matrix[key]
        assert not (verdict == MUST_COMPLETE and result.deadlocked), (
            f"{key[0]}/{key[1]}: static MUST_COMPLETE but the "
            f"differential run deadlocked ({result.reason})")
