"""Production heap engine vs a naive oracle queue: bit-identity, everywhere.

The simulator's binary-heap :class:`~repro.sim.engine.Engine` (the
``reference`` engine) must be indistinguishable from
:class:`tests.sim.calendar_oracle.CalendarOracle` (the ``calendar``
oracle: one FIFO list per timestamp, next event found by ``min()``, so
(time, scheduling order) holds by construction) on every observable
surface:

* the full benchmark × policy matrix (the same 12×8 grid the policy
  differential suite uses) produces identical cycles, completion
  outcomes, stats snapshots, and final memory words;
* a traced run exports an identical Chrome/Perfetto document, the
  ``engine.*`` scheduler counters included;
* a cached sweep that is SIGKILLed mid-flight and resumed from the
  result cache under the oracle finishes bit-identical to an
  uninterrupted sweep on the production engine.

Scheduling order is the simulator's ground truth — a single divergent
tie-break cascades into different lock handoff orders, different resume
sets, and different final stats. The goldens pin that order for a few
policies at one scale; this grid checks the heap's tie-breaks, its
zero-delay lane and its fused batch drain against the oracle under
preemption storms and every wait mechanism's losing wake-ups, which
stay queued and fire harmlessly.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.policies import (
    awg,
    baseline,
    minresume,
    monnr_all,
    monnr_one,
    monr_all,
    monrs_all,
    timeout,
)
from repro.experiments import QUICK_SCALE, run_benchmark
from repro.experiments.cache import ResultCache, result_to_payload
from repro.experiments.matrix import run_matrix
from repro.gpu import gpu as gpu_module
from repro.sim.engine import Engine
from repro.trace.config import TraceConfig
from repro.workloads.registry import benchmark_names
from tests.sim.calendar_oracle import CalendarOracle

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")

#: the policy-differential scenario: small enough that the whole
#: 12 × 8 × 2-queue grid simulates in-process in well under a minute,
#: oversubscribed enough (CU loss, 1 WG slot per CU) to exercise
#: preemption storms and every wait mechanism
SCENARIO = QUICK_SCALE.scaled(
    total_wgs=8,
    wgs_per_group=4,
    max_wgs_per_cu=1,
    iterations=1,
    episodes=4,
    resource_loss_at_us=0.5,
    deadlock_window=100_000,
    label="engine-differential",
)

POLICIES = [
    baseline(),
    timeout(20_000),
    monrs_all(),
    monr_all(),
    monnr_all(),
    monnr_one(),
    awg(),
    minresume(),
]
BENCHMARKS = benchmark_names()
#: the queues under test, by the ids the engine unit tests use
ENGINES = {"calendar": CalendarOracle, "reference": Engine}


@contextlib.contextmanager
def _engine(kind):
    """Build every GPU created inside the block on queue ``kind``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpu_module, "Engine", ENGINES[kind])
        yield


def _run_with_engine(kind, *args, **kwargs):
    """run_benchmark with its GPU on a specific queue."""
    with _engine(kind):
        return run_benchmark(*args, **kwargs)


@pytest.fixture(scope="module")
def matrix():
    """(engine, benchmark, policy) -> RunResult, GPUs kept for memory."""
    cells = {}
    for kind in ("reference", "calendar"):
        for bench in BENCHMARKS:
            for policy in POLICIES:
                cells[(kind, bench, policy.name)] = _run_with_engine(
                    kind, bench, policy, SCENARIO,
                    validate=False, keep_gpu=True,
                )
    return cells


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("policy", [p.name for p in POLICIES])
def test_outcome_and_stats_identical(matrix, bench, policy):
    ref = matrix[("reference", bench, policy)]
    cal = matrix[("calendar", bench, policy)]
    assert (cal.cycles, cal.completed, cal.deadlocked, cal.reason) == (
        ref.cycles, ref.completed, ref.deadlocked, ref.reason
    ), f"{bench}/{policy}: run outcome diverged between engines"
    diffs = {
        key: (ref.stats.get(key), cal.stats.get(key))
        for key in set(ref.stats) | set(cal.stats)
        if ref.stats.get(key) != cal.stats.get(key)
    }
    assert not diffs, (
        f"{bench}/{policy}: {len(diffs)} stat(s) diverged between "
        f"engines (first: {sorted(diffs)[:5]})"
    )


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("policy", [p.name for p in POLICIES])
def test_final_memory_identical(matrix, bench, policy):
    ref = dict(matrix[("reference", bench, policy)].gpu.store.words())
    cal = dict(matrix[("calendar", bench, policy)].gpu.store.words())
    diffs = sorted(
        addr for addr in set(ref) | set(cal)
        if ref.get(addr, 0) != cal.get(addr, 0)
    )
    assert not diffs, (
        f"{bench}/{policy}: final memory diverged at {len(diffs)} "
        f"addresses (first: {[hex(a) for a in diffs[:5]]})"
    )


def test_traced_run_exports_identically():
    overrides = {"trace": TraceConfig()}
    results = {
        kind: _run_with_engine(
            kind, "FAM_G", awg(), QUICK_SCALE,
            validate=False, config_overrides=overrides,
        )
        for kind in ("reference", "calendar")
    }
    ref, cal = results["reference"], results["calendar"]
    assert ref.cycles == cal.cycles
    ref_events = ref.trace["traceEvents"]
    cal_events = cal.trace["traceEvents"]
    assert any(ev.get("cat") == "engine" for ev in ref_events)
    assert len(ref_events) == len(cal_events)
    for i, (a, b) in enumerate(zip(ref_events, cal_events)):
        assert a == b, f"traceEvents[{i}] diverged between engines"
    assert ref.trace == cal.trace


# -- kill-and-resume differential -------------------------------------

_REQUESTS_SNIPPET = """
from repro.core.policies import named_policy
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import QUICK_SCALE


#: the child SIGKILLs itself in this cell: two cells complete and reach
#: the cache before the crash, two never start
KILLED = "SPM_L"


def build_requests():
    benches = ["SPM_G", "FAM_G", KILLED, "TB_LG", "SLM_G"]
    return [
        RunRequest(bench, named_policy("awg"), QUICK_SCALE, validate=False)
        for bench in benches
    ]
"""

_CHILD_MAIN = """
import os
import signal
import sys
sys.path.insert(0, sys.argv[2])
from repro.experiments.cache import ResultCache
from repro.experiments.matrix import run_matrix
from repro.gpu import gpu as gpu_module
from tests.sim.calendar_oracle import CalendarOracle

gpu_module.Engine = CalendarOracle
execute = RunRequest.execute


def kill_in_killed_cell(request):
    if request.benchmark == KILLED:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute(request)


RunRequest.execute = kill_in_killed_cell

run_matrix(build_requests(), jobs=1, cache=ResultCache(sys.argv[1]))
"""


def _build_requests():
    namespace = {}
    exec(_REQUESTS_SNIPPET, namespace)
    return namespace["build_requests"]()


def test_kill_and_resume_matches_reference_engine(tmp_path):
    """SIGKILL a sweep on the oracle queue mid-flight, resume it, and
    pin the resumed results bit-equal to an uninterrupted sweep on the
    production heap engine — crash recovery and the engine compose."""
    cache_dir = tmp_path / "cache"
    script = tmp_path / "child_sweep.py"
    script.write_text(_REQUESTS_SNIPPET + _CHILD_MAIN)
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen(
        [sys.executable, str(script), str(cache_dir), str(ROOT)],
        env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.communicate(timeout=300)
    assert child.returncode == -signal.SIGKILL
    assert ResultCache(cache_dir).entry_count() == 2  # SPM_G, FAM_G

    # resume on the oracle queue in-process
    requests = _build_requests()
    with _engine("calendar"):
        resumed = run_matrix(requests, jobs=1,
                             cache=ResultCache(cache_dir))
    assert not resumed.errors
    assert (resumed.cache_hits, resumed.cache_misses) == (2, 3)

    # the uninterrupted control runs on the production heap engine
    control = run_matrix(_build_requests(), jobs=1, cache=None)
    assert not control.errors
    for index in range(len(requests)):
        assert result_to_payload(resumed[index]) == \
            result_to_payload(control[index]), (
                f"cell {index} diverged between a killed-and-resumed "
                f"oracle sweep and an uninterrupted production sweep"
            )
