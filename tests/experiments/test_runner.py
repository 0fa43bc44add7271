"""Unit tests for the experiment runner and scenarios."""

import pytest

from repro.core.policies import awg, baseline
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import (
    OVERSUBSCRIBED, PAPER_SCALE, QUICK_SCALE, run_benchmark,
)


def test_scenarios_are_paper_faithful():
    assert PAPER_SCALE.total_wgs == \
        PAPER_SCALE.max_wgs_per_cu * 8  # grid exactly fills the GPU
    assert PAPER_SCALE.resource_loss_at_us is None
    assert OVERSUBSCRIBED.resource_loss_at_us is not None


def test_scenario_scaled():
    s = QUICK_SCALE.scaled(total_wgs=8)
    assert s.total_wgs == 8
    assert QUICK_SCALE.total_wgs == 32


#: QUICK_SCALE with one iteration per WG
ONE_ITERATION = QUICK_SCALE.scaled(iterations=1)


def test_run_benchmark_returns_result():
    res = run_benchmark("SPM_G", awg(), ONE_ITERATION)
    assert res.ok
    assert res.benchmark == "SPM_G"
    assert res.policy == "AWG"
    assert res.scenario == "quick"
    assert res.cycles > 0
    assert res.atomics > 0
    assert res.gpu is None


def test_run_benchmark_keep_gpu():
    res = run_benchmark("SPM_G", awg(), ONE_ITERATION, keep_gpu=True)
    assert res.gpu is not None
    assert res.stats["progress.wg_done"] == QUICK_SCALE.total_wgs


def test_scenario_scale_flows_through():
    res = run_benchmark("SPM_G", awg(),
                        ONE_ITERATION.scaled(total_wgs=8, wgs_per_group=4),
                        keep_gpu=True)
    assert len(res.gpu.wgs) == 8


def test_oversubscribed_scenario_deadlocks_baseline():
    scenario = OVERSUBSCRIBED.scaled(
        total_wgs=16, wgs_per_group=8, max_wgs_per_cu=2,
        resource_loss_at_us=5.0, deadlock_window=150_000, iterations=10)
    res = run_benchmark("FAM_G", baseline(), scenario)
    assert res.deadlocked


def test_config_overrides():
    res = run_benchmark("SPM_G", awg(), ONE_ITERATION, keep_gpu=True,
                        config_overrides={"l2_banks": 16})
    assert len(res.gpu.hierarchy.l2_banks) == 16


@pytest.mark.parametrize("key,value", [
    ("seed", 2), ("max_wgs_per_cu", 4), ("deadlock_window", 1),
    ("fault_plan", None),
])
def test_config_overrides_cannot_shadow_the_scenario(key, value):
    # a cell has one spelling: what the scenario owns is set on it
    request = RunRequest("SPM_G", awg(), QUICK_SCALE,
                         config_overrides={key: value})
    with pytest.raises(TypeError, match=key):
        request.execute()
