"""Run-loop semantics: completion holds, re-entrance, end-of-run drain."""

import json

import pytest

from repro.core.policies import awg, baseline, monnr_one, timeout
from repro.errors import SimulationError
from repro.experiments import QUICK_OVERSUBSCRIBED, QUICK_SCALE, run_benchmark

from tests.golden.test_golden_stats import golden_path
from tests.gpu.conftest import make_gpu, simple_kernel


def test_completion_hold_keeps_run_alive(gpu):
    fired = []

    def body(ctx):
        yield from ctx.compute(10)

    def release():
        fired.append(gpu.env.now)
        gpu.release_completion()

    gpu.hold_completion()
    gpu.launch(simple_kernel(body))
    # release the hold (and launch nothing further) at t=5000
    gpu.env.call_at(5_000, release)
    out = gpu.run()
    assert out.ok
    assert fired == [5_000]
    assert out.cycles >= 5_000


def test_unreleased_hold_becomes_no_events_deadlock(gpu):
    def body(ctx):
        yield from ctx.compute(10)

    gpu.hold_completion()
    gpu.launch(simple_kernel(body))
    out = gpu.run()
    # CP ticks keep the heap alive until max_cycles... cap it small
    assert out.deadlocked


def test_work_queued_by_the_last_wg_done_runs_before_run_returns(
        gpu, monkeypatch):
    """The last WG's completion halts the run; a zero-delay entry it
    queues still fires before run() returns."""
    drained = []
    wg_done = gpu.wg_done

    def wg_done_then_queue(wg):
        wg_done(wg)
        gpu.env.call_at(0, drained.append, (wg.wg_id, gpu.env.now))

    monkeypatch.setattr(gpu, "wg_done", wg_done_then_queue)

    def body(ctx):
        yield from ctx.compute(100 * (ctx.grid_index + 1))

    gpu.launch(simple_kernel(body, grid_wgs=3))
    out = gpu.run()
    assert out.ok
    assert [wg_id for wg_id, _now in drained] == [0, 1, 2]
    assert drained[-1][1] == out.cycles


def test_engine_reentrant_run_rejected():
    from repro.sim.engine import Engine

    env = Engine()
    caught = []

    def nested(_ev):
        try:
            env.run()
        except SimulationError:
            caught.append(True)

    env.timeout(5).add_callback(nested)
    env.run()
    assert caught == [True]


def test_second_run_call_continues(gpu):
    """run() can be called again after new work is launched."""
    def body(ctx):
        yield from ctx.compute(100)

    gpu.launch(simple_kernel(body))
    assert gpu.run().ok
    gpu.launch(simple_kernel(body))
    out = gpu.run()
    assert out.ok
    assert out.stats["progress.wg_done"] == 2


@pytest.mark.parametrize(
    "bench, policy, scenario",
    [
        ("SPM_G", awg(), QUICK_SCALE),
        # ends at the deadlock watchdog: pins the knife-edge step() path
        ("SPM_G", baseline(), QUICK_OVERSUBSCRIBED),
        ("FAM_G", timeout(20_000), QUICK_OVERSUBSCRIBED),
        ("TB_LG", monnr_one(), QUICK_OVERSUBSCRIBED),
    ],
    ids=["SPM_G-AWG-quick", "SPM_G-Baseline-oversub",
         "FAM_G-Timeout-oversub", "TB_LG-MonNR-One-oversub"],
)
def test_event_counts_of_a_quick_cell_are_pinned(bench, policy, scenario):
    """How many queue entries one quick cell fires, and the most it keeps
    pending at once, as its golden stat record pins them. Making events
    cheaper must not change which events exist; a change that does
    re-baselines them with REPRO_UPDATE_GOLDENS=1."""
    golden = json.loads(golden_path(bench, policy.name, scenario).read_text())
    result = run_benchmark(bench, policy, scenario, keep_gpu=True)
    metrics = result.gpu.env.metrics()
    assert (metrics["fired"], metrics["peak_pending"]) == (
        golden["engine.fired"], golden["engine.peak_pending"])
