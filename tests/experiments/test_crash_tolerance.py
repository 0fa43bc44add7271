"""Matrix-runner survival: a killed worker, and a failed cell failing
the figure that reads it.

The kill drill is a `RunRequest` whose first execution SIGKILLs the
process running it. The pool's workers are forked, so they resolve the
test-defined class when they unpickle the request.
"""

import os
import signal
from dataclasses import dataclass

import pytest

from repro.cli import ARTIFACTS, tabulate
from repro.core.policies import awg
from repro.experiments.cache import ResultCache, default_cache
from repro.experiments.matrix import CellError, RunRequest, run_matrix
from repro.experiments.runner import QUICK_SCALE

SCEN = QUICK_SCALE.scaled(total_wgs=8, wgs_per_group=4, iterations=1,
                          episodes=2)


@dataclass(frozen=True)
class KillOnce(RunRequest):
    """Consumes ``sentinel`` and SIGKILLs its worker if the file exists,
    so a re-run of the same cell runs it to completion."""

    sentinel: str = ""

    def execute(self):
        if os.path.exists(self.sentinel):
            os.remove(self.sentinel)
            os.kill(os.getpid(), signal.SIGKILL)
        return super().execute()


def _req(benchmark):
    return RunRequest(benchmark, awg(), SCEN, validate=False)


def _killer(tmp_path):
    sentinel = tmp_path / "kill-once"
    sentinel.write_text("armed")
    request = KillOnce("SPM_L", awg(), SCEN, validate=False,
                       sentinel=str(sentinel))
    return request, sentinel


# ---------------------------------------------------------------------------
# a killed worker (BrokenProcessPool)
# ---------------------------------------------------------------------------

def test_killed_worker_fails_its_cell_and_a_rerun_completes_it(tmp_path):
    killer, sentinel = _killer(tmp_path)
    requests = [killer, _req("SPM_G")]
    cache = ResultCache(tmp_path / "cache")
    # jobs=2 runs even the killer in a worker: in the calling process the
    # kill would end the caller
    matrix = run_matrix(requests, jobs=2, cache=cache)
    assert not sentinel.exists()
    # the sweep returns every cell, each a result or a structured crash
    # failure; the broken pool may also cost the sibling in flight
    assert len(matrix.cells) == 2
    assert matrix.cells[0].failure is not None  # the killed cell, always
    for err in matrix.errors:
        assert err.failure["type"] == "WorkerCrashError"
        assert set(err.failure) == {"type", "message", "traceback"}
    with pytest.raises(CellError, match=r"cell \(SPM_L, AWG, "):
        matrix[0]

    # a re-run on the same cache runs only the lost cells, to completion
    rerun = run_matrix(requests, jobs=2, cache=cache)
    assert not rerun.errors
    assert rerun.cache_misses == len(matrix.errors)
    assert rerun.cache_hits == 2 - len(matrix.errors)
    assert all(result.ok for result in rerun)


# ---------------------------------------------------------------------------
# a failed cell fails its figure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["fig14", "fig15"])
def test_failed_cell_fails_its_figure_with_its_cell_error(name, quick_table,
                                                          monkeypatch):
    # the --quick table's cells are in the session cache; only the
    # failing cell misses, so it alone executes
    quick_table(name)
    artifact = ARTIFACTS[name]
    failing = RunRequest("TB_LG", awg(), artifact.quick)
    miss = default_cache().key_for(failing.spec())
    get = ResultCache.get
    monkeypatch.setattr(ResultCache, "get", lambda self, key:
                        None if key == miss else get(self, key))
    executed = []

    def fail_one(request):
        executed.append((request.benchmark, request.policy.name))
        raise RuntimeError("injected cell failure")

    monkeypatch.setattr(RunRequest, "execute", fail_one)
    with pytest.raises(CellError, match=r"cell \(TB_LG, AWG, ") as exc:
        tabulate(name, quick=True, jobs=1)
    assert exc.value.failure["message"] == "injected cell failure"
    assert executed == [("TB_LG", "AWG")]
