"""Dynamic sync sanitizer: seeded race caught, shipped benchmarks clean."""

import json

import pytest

from repro.core.policies import awg, baseline, named_policy
from repro.errors import DeviceError
from repro.experiments.runner import QUICK_SCALE, run_benchmark
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU
from repro.gpu.kernel import Kernel, ResourceProfile
from repro.sync.mutex import SpinMutex
from repro.workloads.registry import benchmark_names, get_spec

TINY = QUICK_SCALE.scaled(
    label="tiny", total_wgs=8, wgs_per_group=4, max_wgs_per_cu=4,
    iterations=1, episodes=2,
)


def _sanitized_run(name, policy=None, scenario=TINY):
    return run_benchmark(
        name, policy or awg(), scenario, validate=True, keep_gpu=True,
        config_overrides={"sanitize": True},
    )


# -- the seeded race ----------------------------------------------------------

def test_racy_drill_is_registered_but_not_a_benchmark():
    assert get_spec("_RACY").category == "stress"
    assert "_RACY" not in benchmark_names()


def test_sanitizer_catches_the_mutex_bypass_race():
    res = _sanitized_run("_RACY")
    report = res.gpu.sanitizer.report()
    assert res.ok
    assert report["race_count"] > 0
    assert report["races"]
    race = report["races"][0]
    # The report names both WGs, the address, and the (empty) lockset
    # intersection that diagnoses the missing discipline.
    assert race["kind"] in ("write-write", "write-read", "read-write")
    assert race["first_wg"] != race["second_wg"]
    assert race["lockset_intersection"] == []
    assert race["candidate_lockset"] == []
    assert race["hint"]
    # Races surface as stats too.
    assert res.stats["sanitizer.races"] == report["race_count"]


def test_race_report_is_bit_deterministic():
    r1 = _sanitized_run("_RACY").gpu.sanitizer.report()
    r2 = _sanitized_run("_RACY").gpu.sanitizer.report()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_racy_races_always_involve_a_bypassing_wg():
    # grid_index % 4 == 3 WGs skip the lock; every race must name one.
    res = _sanitized_run("_RACY")
    grid_index = {wg.wg_id: wg.grid_index for wg in res.gpu.wgs}
    for race in res.gpu.sanitizer.races:
        bypassers = [w for w in (race["first_wg"], race["second_wg"])
                     if grid_index[w] % 4 == 3]
        assert bypassers, race


# -- shipped benchmarks are race-free -----------------------------------------

@pytest.mark.parametrize("name", benchmark_names())
def test_shipped_benchmark_is_race_free(name):
    res = _sanitized_run(name)
    report = res.gpu.sanitizer.report()
    assert res.ok
    assert report["race_count"] == 0, report["races"][:3]
    assert report["lock_errors"] == []


def test_spm_g_race_free_under_busy_wait_baseline():
    # HB edges come from the atomics themselves, not the policy: the
    # busy-waiting baseline must be just as clean as AWG.
    res = _sanitized_run("SPM_G", policy=baseline())
    assert res.ok
    assert res.gpu.sanitizer.race_count == 0


# -- disabled by default ------------------------------------------------------

def test_sanitizer_is_opt_in():
    res = run_benchmark("SPM_G", awg(), TINY, keep_gpu=True)
    assert res.gpu.sanitizer is None
    assert res.gpu.hierarchy.sanitizer is None
    assert "sanitizer.races" not in res.stats


# -- lock errors --------------------------------------------------------------

def test_sanitizer_records_release_without_acquire():
    config = GPUConfig(num_cus=2, max_wgs_per_cu=2, sanitize=True,
                       deadlock_window=100_000, max_cycles=5_000_000)
    gpu = GPU(config, awg())
    mutex = SpinMutex(gpu)

    def body(ctx):
        token = yield from mutex.acquire(ctx)
        yield from mutex.release(ctx, token)
        yield from mutex.release(ctx, token)

    gpu.launch(Kernel(name="dbl", body=body, grid_wgs=1,
                      resources=ResourceProfile(4, 16, 0), args={}))
    with pytest.raises(DeviceError, match="release-without-acquire"):
        gpu.run()
    errors = gpu.sanitizer.lock_errors
    assert len(errors) == 1
    assert errors[0]["kind"] == "release-without-acquire"
    assert errors[0]["wg"] == 0
    assert errors[0]["lock_addr"] == mutex.home_addr
    assert gpu.sanitizer.report()["lock_errors"] == errors


# -- CLI ----------------------------------------------------------------------

def test_cli_sanitize_exit_codes(capsys):
    from repro.cli import main

    assert main(["run", "SPM_G", "awg", "--quick", "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "no races detected" in out

    assert main(["run", "_RACY", "--quick", "--sanitize", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["race_count"] > 0
    assert data["benchmark"] == "_RACY"
    assert data["completed"] is True


def test_cli_sanitize_default_policy_is_awg(capsys):
    from repro.cli import main

    assert main(["run", "SPM_G", "--quick", "--sanitize"]) == 0
    assert "under AWG" in capsys.readouterr().out


def test_named_policy_round_trip():
    # the CLI resolves policy names through named_policy
    assert named_policy("awg").name == "AWG"
