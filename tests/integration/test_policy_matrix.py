"""The full policy × benchmark matrix at quick scale.

Every IFP-providing policy must complete and validate every benchmark in
both scenarios; Baseline and Sleep must complete when non-oversubscribed
and are expected to deadlock on the FIFO-ordered benchmarks when
resources are lost mid-run.
"""

import pytest

from repro.core.policies import (
    awg, baseline, minresume, monnr_all, monnr_one, monr_all, monrs_all,
    sleep, timeout,
)
from repro.experiments.runner import OVERSUBSCRIBED, QUICK_SCALE, run_benchmark
from repro.workloads.registry import benchmark_names

IFP_POLICIES = [
    timeout(10_000), monrs_all(backstop=50_000), monr_all(backstop=50_000),
    monnr_all(), monnr_one(straggler_timeout=10_000), minresume(), awg(),
]
NON_IFP = [baseline(), sleep(8_000)]

QUICK_OVER = OVERSUBSCRIBED.scaled(
    total_wgs=32, wgs_per_group=4, max_wgs_per_cu=4,
    iterations=4, episodes=8, resource_loss_at_us=8.0,
    deadlock_window=200_000, label="quick-oversubscribed",
)

#: baseline GPUs cannot restore forcibly evicted WGs at all, so every
#: benchmark deadlocks once resources are lost mid-run (paper Figure 15)
FIFO_BENCHMARKS = ["SPM_G", "FAM_G", "SLM_G", "FAM_L", "SLM_L", "TB_LG",
                   "LFTB_LG"]


@pytest.mark.parametrize("policy", IFP_POLICIES + NON_IFP,
                         ids=lambda p: p.name)
@pytest.mark.parametrize("bench", benchmark_names())
def test_non_oversubscribed_everyone_completes(bench, policy):
    res = run_benchmark(bench, policy, QUICK_SCALE)
    assert res.ok, (bench, policy.name, res.reason)


@pytest.mark.parametrize("policy", IFP_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("bench", ["SPM_G", "FAM_G", "SLM_G", "TB_LG",
                                   "LFTB_LG"])
def test_oversubscribed_ifp_policies_complete(bench, policy):
    res = run_benchmark(bench, policy, QUICK_OVER)
    assert res.ok, (bench, policy.name, res.reason)


@pytest.mark.parametrize("bench", FIFO_BENCHMARKS)
def test_oversubscribed_baseline_deadlocks_on_fifo(bench):
    # the loss must land while the FIFO chains are live: trigger it early
    # and stretch the runs with more iterations
    scenario = QUICK_OVER.scaled(resource_loss_at_us=3.0, iterations=8,
                                 episodes=12)
    res = run_benchmark(bench, baseline(), scenario, validate=False)
    assert res.deadlocked, (
        f"{bench}: busy-waiting should deadlock when the evicted WG "
        "carries the FIFO chain"
    )


def test_all_policies_agree_on_final_memory():
    """Every policy computes the same final shared-data value (the
    schedule differs; the computation must not)."""
    finals = {}
    for policy in IFP_POLICIES + NON_IFP:
        res = run_benchmark("FAM_G", policy, QUICK_SCALE, keep_gpu=True)
        assert res.ok
        kernel_args = res.gpu.launches[0].kernel.args
        finals[policy.name] = res.gpu.store.read(kernel_args["data_addrs"][0])
    assert len(set(finals.values())) == 1, finals
