"""Matrix-runner survival: killed workers, bounded retries, and a failed
cell failing the figure that reads it.

Uses the underscore-prefixed `_KILL` stress drill from the workload
registry (it SIGKILLs its worker once, gated on a sentinel file), which
resolves in any process but never appears in figures.
"""

import pytest

from repro.core.policies import awg, baseline, timeout
from repro.experiments import fig14, fig15
from repro.experiments.matrix import CellError, RunRequest, run_matrix
from repro.experiments.runner import QUICK_SCALE
from repro.workloads.registry import STRESS_KILL_ENV

SCEN = QUICK_SCALE.scaled(total_wgs=8, wgs_per_group=4, iterations=1,
                          episodes=2)


def _req(benchmark):
    return RunRequest(benchmark, awg(), SCEN, validate=False)


# ---------------------------------------------------------------------------
# killed workers (BrokenProcessPool recovery)
# ---------------------------------------------------------------------------

def test_killed_worker_is_retried_and_sweep_recovers(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.experiments.matrix.RETRY_BACKOFF", 0.05)
    sentinel = tmp_path / "kill-once"
    sentinel.write_text("armed")
    monkeypatch.setattr("repro.experiments.matrix.CELL_RETRIES", 2)
    monkeypatch.setenv(STRESS_KILL_ENV, str(sentinel))
    requests = [_req("_KILL"), _req("SPM_G")]
    matrix = run_matrix(requests, jobs=2, cache=None)
    # the first attempt consumed the sentinel and died; the retry ran
    # the same cell to completion, and no other cell was lost
    assert not sentinel.exists()
    assert matrix[0].ok
    assert matrix[1].ok
    assert not matrix.errors


def test_lone_killed_cell_is_retried_in_a_worker(tmp_path, monkeypatch):
    # a one-cell sweep at jobs>1 still runs in a worker: run in the
    # calling process, the kill would end the caller instead
    monkeypatch.setattr("repro.experiments.matrix.RETRY_BACKOFF", 0.05)
    sentinel = tmp_path / "kill-once"
    sentinel.write_text("armed")
    monkeypatch.setattr("repro.experiments.matrix.CELL_RETRIES", 2)
    monkeypatch.setenv(STRESS_KILL_ENV, str(sentinel))
    matrix = run_matrix([_req("_KILL")], jobs=2, cache=None)
    assert not sentinel.exists()
    assert matrix[0].ok
    assert not matrix.errors


def test_exhausted_retries_become_structured_failures(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.experiments.matrix.RETRY_BACKOFF", 0.05)
    sentinel = tmp_path / "kill-once"
    sentinel.write_text("armed")
    monkeypatch.setattr("repro.experiments.matrix.CELL_RETRIES", 0)
    monkeypatch.setenv(STRESS_KILL_ENV, str(sentinel))
    requests = [_req("_KILL"), _req("SPM_G")]
    matrix = run_matrix(requests, jobs=2, cache=None)
    # with no retries allowed, the killed cell is recorded as a crash;
    # pool breakage may also cost in-flight siblings, but the sweep
    # itself returns every cell, each either a result or a failure
    assert len(matrix.cells) == 2
    failures = [c.failure for c in matrix.cells if c.failure is not None]
    assert failures
    assert all(f["type"] == "WorkerCrashError" for f in failures)
    assert matrix.cells[0].failure is not None  # the killed cell, always
    for err in matrix.errors:
        assert err.failure["type"] == "WorkerCrashError"
        assert err.failure["classification"] == "environmental"
        assert "attempt" in err.failure["message"]


# ---------------------------------------------------------------------------
# a failed cell fails its figure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("figure", [fig14, fig15], ids=["fig14", "fig15"])
def test_failed_cell_fails_its_figure_with_its_cell_error(figure,
                                                          monkeypatch):
    execute = RunRequest.execute

    def fail_one(request):
        if (request.benchmark, request.policy.name) == ("TB_LG", "AWG"):
            raise RuntimeError("injected cell failure")
        return execute(request)

    monkeypatch.setattr(RunRequest, "execute", fail_one)
    with pytest.raises(CellError, match=r"cell \(TB_LG, AWG, ") as exc:
        figure.run(SCEN, benchmarks=["SPM_G", "TB_LG"],
                   policies=[baseline(), timeout(20_000), awg()],
                   jobs=1, cache=None)
    assert exc.value.failure["message"] == "injected cell failure"
