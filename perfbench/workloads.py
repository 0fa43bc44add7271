"""The benchmark's workloads: seeded cell lists and per-cell correctness.

A workload is a list of *sweeps*; a sweep is the list of
:class:`~repro.experiments.matrix.RunRequest` cells that one
``run_matrix`` call receives. The workload seed reaches the program only
as ``Scenario.seed`` on every generated cell.

Why each workload exists (see ``perfbench/BASELINE.md`` for the measured
per-layer shares):

* ``paper-grid`` -- Fig 14 cells at ``PAPER_SCALE``. Almost all host time
  is the simulator hot loop; no WG is ever context-switched.
* ``oversub-grid`` -- Fig 13/15 cells at ``OVERSUBSCRIBED``: CP
  save/restore, preemption and the deadlock watchdog at paper scale.
  Runnable by name, but not one of ``BENCHMARK.json``'s workloads: the
  run budget there fits two workloads of 40 s, and ``quick-sweep``'s
  oversubscribed cells drive the same layers.
* ``quick-sweep`` -- every ``run_matrix`` cell of the quick-scale figure
  sweeps fig7..fig15, run cold in figure order. GPU construction, the
  result cache and matrix orchestration carry a visible share here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import PolicySpec, awg, baseline, monnr_one, timeout
from repro.experiments.matrix import Cell, RunRequest
from repro.experiments.runner import OVERSUBSCRIBED, PAPER_SCALE, RunResult

#: the seed whose cell digests are recorded in ``expected.json`` (it is
#: also ``Scenario``'s own default, so these are the repo's figure cells)
DEFAULT_SEED = 1

#: figure modules whose quick-scale sweeps make up ``quick-sweep``
QUICK_FIGURES = ("fig7", "fig8", "fig9", "fig11", "fig13", "fig14", "fig15")

Sweeps = List[List[RunRequest]]


def _grid(scenario, cells: Sequence[Tuple[str, PolicySpec]]) -> Sweeps:
    return [[RunRequest(name, policy, scenario) for name, policy in cells]]


def _paper_grid() -> Sweeps:
    # Fig 14 minus the SPM_G and FAM_G Baseline cells, which alone take
    # 40% of the full grid's host time without adding a layer the kept
    # atomic-heavy cells (FAM_G/Timeout, SLM_L and LFTBEX_LG Baseline)
    # do not already exercise, and minus SPM_G/Timeout so that the cell
    # count is odd: the median then sits on one cell's repeats instead
    # of straddling two cells.
    dropped = {("SPM_G", "Baseline"), ("FAM_G", "Baseline"),
               ("SPM_G", "Timeout-20k")}
    cells = [(name, policy)
             for name in ("SPM_G", "FAM_G", "SLM_L", "TB_LG", "LFTBEX_LG")
             for policy in (baseline(), timeout(20_000), monnr_one(), awg())
             if (name, policy.name) not in dropped]
    return _grid(PAPER_SCALE, cells)


def _oversub_grid() -> Sweeps:
    # nine cells, an odd count for the same reason as in _paper_grid
    return _grid(OVERSUBSCRIBED, [
        ("SPM_G", baseline()),          # stopped by the deadlock watchdog
        ("FAM_G", baseline()),          # stopped by the deadlock watchdog
        ("FAM_G", timeout(20_000)),     # ~7.6k context switches
        ("FAM_G", awg()),
        ("SLM_L", timeout(20_000)),
        ("SLM_L", monnr_one()),
        ("TB_LG", timeout(20_000)),
        ("TB_LG", monnr_one()),         # ~470 context switches
        ("LFTBEX_LG", awg()),           # ~130 context switches
    ])


class _Captured(Exception):
    def __init__(self, requests: List[RunRequest]):
        super().__init__("captured")
        self.requests = list(requests)


def _quick_sweep() -> Sweeps:
    """The cells each quick-scale figure hands to ``run_matrix``, taken
    from the CLI's own ``--quick`` path so scenario choices stay in one
    place. Each figure calls ``run_matrix`` exactly once; the stand-in
    raises with the requests before anything is simulated."""
    import importlib

    from repro import cli

    def capture(requests, *_args, **_kwargs):
        raise _Captured(requests)

    sweeps: Sweeps = []
    for name in QUICK_FIGURES:
        module = importlib.import_module(f"repro.experiments.{name}")
        original = module.run_matrix
        module.run_matrix = capture
        try:
            cli._run_experiment(name, True)
        except _Captured as captured:
            sweeps.append(captured.requests)
        else:
            raise RuntimeError(f"{name} did not call run_matrix")
        finally:
            module.run_matrix = original
    return sweeps


WORKLOADS = {
    "paper-grid": _paper_grid,
    "oversub-grid": _oversub_grid,
    "quick-sweep": _quick_sweep,
}


def cell_list(workload: str, seed: int) -> Sweeps:
    """The workload's sweeps with every cell's scenario seeded."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    return [[replace(req, scenario=req.scenario.scaled(seed=seed))
             for req in sweep]
            for sweep in WORKLOADS[workload]()]


def cell_id(request: RunRequest) -> str:
    """Seed-independent, human-readable identity of one cell."""
    return (f"{request.benchmark}/{request.policy.name}/"
            f"{request.scenario.label}")


# -- correctness -------------------------------------------------------

def result_digest(result: RunResult, stat_keys: Sequence[str]) -> str:
    """Digest of the modelled outcome: cycles, completion and the named
    deterministic stats (host timings never enter a RunResult)."""
    doc = {
        "cycles": result.cycles,
        "completed": result.completed,
        "deadlocked": result.deadlocked,
        "reason": result.reason,
        "atomics": result.atomics,
        "waiting_atomics": result.waiting_atomics,
        "context_switches": result.context_switches,
        "wg_running_cycles": result.wg_running_cycles,
        "wg_waiting_cycles": result.wg_waiting_cycles,
        "stats": {key: result.stats.get(key) for key in stat_keys},
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def check_cell(cell: Cell, expected: Dict, digest: bool) -> Optional[str]:
    """Why one matrix cell is wrong, or None when it is correct.

    ``expected`` is the recorded ``expected.json``: per cell, how it ends
    (``completed``, or ``watchdog`` for a policy without IFP on an
    oversubscribed machine) and, for the default seed, the digest of its
    modelled outcome. ``digest`` is False on every other seed."""
    request, result = cell.request, cell.result
    if result is None:
        failure = cell.failure or {}
        # the workloads' final-memory validators raise AssertionError
        if failure.get("type") == "AssertionError":
            return f"final-memory validation failed: {failure.get('message')}"
        return f"raised {failure.get('type')}: {failure.get('message')}"
    record = expected["cells"].get(cell_id(request))
    if record is None:
        return "no recorded expectation"
    if request.policy.provides_ifp and not result.ok:
        return f"IFP policy did not complete ({result.reason})"
    if result.reason != record["outcome"]:
        return f"ended {result.reason!r}, expected {record['outcome']!r}"
    if digest and result_digest(result, expected["stat_keys"]) != record["digest"]:
        return "modelled outcome differs from the recorded digest"
    return None
