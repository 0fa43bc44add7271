"""Golden-stat regression corpus.

Each cell in ``CELLS`` simulates one (benchmark, policy) pair at
QUICK_SCALE and compares the full stats snapshot -- every counter, the
cycle count, completion flag, and the engine's ``fired`` and
``peak_pending`` counts -- against a checked-in JSON golden in
this directory.  The simulator is deterministic, so any diff is a real
behaviour change: either a regression, or an intentional change that
must be reviewed and re-baselined.

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/golden -q

and commit the rewritten JSON files alongside the code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.policies import awg, baseline, monnr_one, timeout
from repro.experiments import QUICK_SCALE, run_benchmark
from tests.conftest import check_golden

GOLDEN_DIR = Path(__file__).parent

BENCHMARKS = ["SPM_G", "FAM_G", "TB_LG"]
POLICIES = [baseline(), timeout(20_000), monnr_one(), awg()]

CELLS = [(bench, policy) for bench in BENCHMARKS for policy in POLICIES]


def _slug(name: str) -> str:
    return name.lower().replace("-", "_")


def golden_path(bench: str, policy_name: str) -> Path:
    return GOLDEN_DIR / f"{_slug(bench)}__{_slug(policy_name)}.json"


def compute_record(bench: str, policy) -> dict:
    result = run_benchmark(bench, policy, QUICK_SCALE, validate=False,
                           keep_gpu=True)
    metrics = result.gpu.env.metrics()
    return {
        "benchmark": bench,
        "policy": policy.name,
        "scenario": QUICK_SCALE.label,
        "completed": result.completed,
        "cycles": result.cycles,
        "atomics": result.atomics,
        "context_switches": result.context_switches,
        # the schedule itself: how many queue entries fired, and the most
        # pending at once; a change that keeps every stat but moves
        # these changed which events exist
        "engine.fired": metrics["fired"],
        "engine.peak_pending": metrics["peak_pending"],
        "stats": result.stats,
    }


@pytest.mark.parametrize(
    "bench,policy", CELLS, ids=[f"{b}-{p.name}" for b, p in CELLS]
)
def test_golden_stats(bench, policy):
    check_golden(golden_path(bench, policy.name),
                 compute_record(bench, policy), indent=1)
