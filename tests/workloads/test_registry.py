"""Unit tests for the benchmark registry."""

import pytest

from repro.core.policies import awg
from repro.errors import ConfigError
from repro.workloads.registry import (
    BENCHMARKS, BenchmarkParams, benchmark_names, build_benchmark, get_spec,
)

from tests.gpu.conftest import make_gpu


def test_twelve_benchmarks_registered():
    assert len(BENCHMARKS) == 12
    assert benchmark_names() == [
        "SPM_G", "SPMBO_G", "FAM_G", "SLM_G",
        "SPM_L", "SPMBO_L", "FAM_L", "SLM_L",
        "TB_LG", "LFTB_LG", "TBEX_LG", "LFTBEX_LG",
    ]


def test_category_filter():
    assert len(benchmark_names("mutex")) == 8
    assert len(benchmark_names("barrier")) == 4


def test_sleep_support_set_matches_figure7():
    supported = {n for n, s in BENCHMARKS.items() if s.supports_sleep}
    assert supported == {"SPM_G", "FAM_G", "SPM_L", "FAM_L", "TB_LG",
                         "TBEX_LG"}


def test_get_spec_unknown():
    with pytest.raises(ConfigError):
        get_spec("NOPE")


def test_params_overrides():
    # keyword overrides update the default parameters, nothing else
    kernel = build_benchmark("SPM_G", make_gpu(awg()), total_wgs=16,
                             iterations=1)
    p = kernel.args["params"]
    assert p.total_wgs == 16 and p.iterations == 1
    assert p == BenchmarkParams(total_wgs=16, iterations=1)
    assert BenchmarkParams().total_wgs == 64


def test_global_scope_one_mutex():
    gpu = make_gpu()
    k = build_benchmark("SPM_G", gpu, total_wgs=8, wgs_per_group=4)
    assert len(k.args["mutexes"]) == 1


def test_local_scope_one_mutex_per_group():
    gpu = make_gpu()
    k = build_benchmark("SPM_L", gpu, total_wgs=8, wgs_per_group=4)
    assert len(k.args["mutexes"]) == 2


def test_local_scope_requires_divisibility():
    gpu = make_gpu()
    with pytest.raises(ConfigError):
        build_benchmark("SPM_L", gpu, total_wgs=10, wgs_per_group=4)


def test_data_colocated_with_mutex_home_line():
    gpu = make_gpu()
    k = build_benchmark("SPM_G", gpu, total_wgs=8, wgs_per_group=4)
    mutex = k.args["mutexes"][0]
    data = k.args["data_addrs"][0]
    assert data // 64 == mutex.home_addr // 64  # same cache line


def test_table2_rows_present():
    for spec in BENCHMARKS.values():
        assert spec.table2.granularity == "n"
        assert spec.table2.sync_vars
        assert spec.table2.waiters_per_cond


def test_validate_catches_lost_updates():
    gpu = make_gpu(awg())
    k = build_benchmark("SPM_G", gpu, total_wgs=4, wgs_per_group=2,
                        iterations=2)
    gpu.launch(k)
    assert gpu.run().ok
    # corrupt the result, then validation must fail
    data = k.args["data_addrs"][0]
    gpu.store.write(data, 3)
    with pytest.raises(AssertionError):
        k.args["validate"](gpu)


def test_barrier_validate_catches_missing_episode():
    gpu = make_gpu(awg())
    k = build_benchmark("TB_LG", gpu, total_wgs=4, wgs_per_group=2,
                        episodes=2)
    gpu.launch(k)
    assert gpu.run().ok
    gpu.store.write(k.args["episode_addrs"][0], 1)
    with pytest.raises(AssertionError):
        k.args["validate"](gpu)
