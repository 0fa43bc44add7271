"""Golden-stat regression corpus.

Each cell in ``CELLS`` simulates one (benchmark, policy) pair at
QUICK_SCALE, or at QUICK_OVERSUBSCRIBED for the ``-oversub`` cells, and
compares the full stats snapshot -- every counter, the cycle count,
completion flag, and the engine's ``fired`` and ``peak_pending`` counts
-- against a checked-in JSON golden in this directory.

The QUICK_SCALE cells never context switch. The oversubscribed cells
pin the switch half of the wait episode (``gpu/workgroup.py``):
TBEX_LG/MonR-All evicts, retries on the backstop while stalled,
switched out, ready and resuming, and takes a late resume; FAM_G/AWG
keeps stalling when its predicted stall expires with nothing to run,
is evicted and retries on the straggler timer. The other three are the
cells ``tests/gpu/test_run_loop.py`` reads its event counts from.

The simulator is deterministic, so any diff is a real behaviour change:
either a regression, or an intentional change that must be reviewed and
re-baselined.

Regenerate after an intentional change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/golden -q

and commit the rewritten JSON files alongside the code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.policies import awg, baseline, monnr_one, monr_all, timeout
from repro.experiments import QUICK_OVERSUBSCRIBED, QUICK_SCALE, run_benchmark
from tests.conftest import check_golden

GOLDEN_DIR = Path(__file__).parent

BENCHMARKS = ["SPM_G", "FAM_G", "TB_LG"]
POLICIES = [baseline(), timeout(20_000), monnr_one(), awg()]

CELLS = [(bench, policy, QUICK_SCALE)
         for bench in BENCHMARKS for policy in POLICIES] + [
    (bench, policy, QUICK_OVERSUBSCRIBED) for bench, policy in [
        ("SPM_G", baseline()),
        ("FAM_G", timeout(20_000)),
        ("TB_LG", monnr_one()),
        ("TBEX_LG", monr_all()),
        ("FAM_G", awg()),
    ]
]


def _slug(name: str) -> str:
    return name.lower().replace("-", "_")


def _suffix(scenario) -> str:
    return "" if scenario is QUICK_SCALE else "-oversub"


def golden_path(bench: str, policy_name: str, scenario=QUICK_SCALE) -> Path:
    return GOLDEN_DIR / (f"{_slug(bench)}__"
                         f"{_slug(policy_name + _suffix(scenario))}.json")


def compute_record(bench: str, policy, scenario=QUICK_SCALE) -> dict:
    result = run_benchmark(bench, policy, scenario, validate=False,
                           keep_gpu=True)
    metrics = result.gpu.env.metrics()
    return {
        "benchmark": bench,
        "policy": policy.name,
        "scenario": scenario.label,
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
    "bench,policy,scenario", CELLS,
    ids=[f"{b}-{p.name}{_suffix(s)}" for b, p, s in CELLS],
)
def test_golden_stats(bench, policy, scenario):
    check_golden(golden_path(bench, policy.name, scenario),
                 compute_record(bench, policy, scenario), indent=1)
