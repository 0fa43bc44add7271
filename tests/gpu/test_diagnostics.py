"""Structured watchdog diagnostics: stall reports, deadlock vs livelock."""

from repro.core.policies import awg, baseline
from repro.experiments.runner import QUICK_SCALE, run_benchmark
from repro.faults.plan import FaultPlan, PreemptionStorm
from repro.gpu.config import GPUConfig
from repro.gpu.diagnostics import classify_stagnation
from repro.gpu.gpu import GPU, LIVELOCK_WINDOWS
from repro.gpu.kernel import Kernel
from repro.workloads.registry import BenchmarkParams, build_benchmark

SCEN = QUICK_SCALE.scaled(total_wgs=8, wgs_per_group=4, iterations=1,
                          episodes=4, deadlock_window=100_000)

#: one permanent CU loss early in the run: Baseline must deadlock
BLACKOUT = FaultPlan(
    name="test-blackout", seed=1,
    storm=PreemptionStorm(storms=1, first_at_us=0.5, severity=1),
)

STALL_KEYS = {
    "wg_id", "kernel", "state", "resident", "cu", "cycles_in_state",
    "condition", "wait_episodes", "context_switches",
}


def test_deadlocked_run_carries_a_structured_diagnosis():
    res = run_benchmark("SPM_G", baseline(), SCEN.scaled(fault_plan=BLACKOUT),
                        validate=False)
    assert res.deadlocked
    diag = res.diagnosis
    assert diag is not None
    assert diag["kind"] == "deadlock"
    assert diag["reason"] == "watchdog"
    assert diag["policy"] == "Baseline"
    assert diag["cycle"] > 0
    assert 0 <= diag["finished"] < diag["total"] == 8
    stalls = diag["stalls"]
    assert len(stalls) == diag["total"] - diag["finished"]
    for entry in stalls:
        assert STALL_KEYS <= set(entry)
    # the evicted WGs are the diagnosis's smoking gun: switched out,
    # no residency, and nothing on a baseline GPU can bring them back
    evicted = [e for e in stalls if e["state"] == "switched_out"]
    assert evicted
    for entry in evicted:
        assert entry["resident"] is False
        assert entry["cu"] is None
    # eviction is what put them there: each paid a context switch, and
    # busy-waiting registers no condition anywhere (nothing to notify)
    assert all(e["context_switches"] >= 1 for e in evicted)
    assert all(e["condition"] is None for e in stalls)


def test_completed_run_has_no_diagnosis():
    res = run_benchmark("SPM_G", awg(), SCEN.scaled(fault_plan=BLACKOUT),
                        validate=False)
    assert res.ok
    assert res.diagnosis is None


def test_gpu_run_diagnosis_carries_the_full_report():
    config = SCEN.scaled(fault_plan=BLACKOUT).config()
    gpu = GPU(config, baseline())
    kernel = build_benchmark(
        "SPM_G", gpu,
        params=BenchmarkParams(total_wgs=8, wgs_per_group=4,
                               iterations=1, episodes=4),
    )
    gpu.launch(kernel)
    diag = gpu.run().diagnosis
    assert diag["cycle"] == gpu.env.now > 0
    assert diag["kind"] == "deadlock"
    assert diag["reason"] == "watchdog"
    assert diag["policy"] == "Baseline"
    assert diag["stalls"]
    assert len(diag["stalls"]) == diag["total"] - diag["finished"]
    assert all(STALL_KEYS <= set(entry) for entry in diag["stalls"])


def _spin_forever(ctx):
    while True:
        yield from ctx.compute(200)


def test_livelock_distinguished_from_deadlock():
    """Instructions retiring without any condition advancing is reported
    as a livelock, not a deadlock."""
    kernel = Kernel(name="spinner", body=_spin_forever, grid_wgs=2)
    config = GPUConfig(num_cus=2, max_wgs_per_cu=2, deadlock_window=20_000)
    gpu = GPU(config, baseline())
    gpu.launch(kernel)
    outcome = gpu.run()
    assert outcome.deadlocked
    assert outcome.reason == "livelock"
    assert outcome.cycles >= LIVELOCK_WINDOWS * config.deadlock_window
    assert outcome.diagnosis["kind"] == "livelock"
    assert len(outcome.diagnosis["stalls"]) == 2
    for entry in outcome.diagnosis["stalls"]:
        assert entry["state"] == "running"
        assert entry["condition"] is None


def test_classify_stagnation():
    assert classify_stagnation(True) == "deadlock"
    assert classify_stagnation(False) == "livelock"
