"""Matrix-runner survival: hung cells, killed workers, bounded retries.

Uses the underscore-prefixed stress drills from the workload registry
(`_HANG` wall-clock-sleeps in its builder; `_KILL` SIGKILLs its worker
once, gated on a sentinel file), which resolve in any process but never
appear in figures.
"""

import pytest

from repro.core.policies import awg
from repro.errors import ConfigError
from repro.experiments.matrix import (
    CellError, RunRequest, resolve_cell_retries, resolve_cell_timeout,
    run_matrix,
)
from repro.experiments.runner import QUICK_SCALE
from repro.workloads.registry import STRESS_KILL_ENV

SCEN = QUICK_SCALE.scaled(total_wgs=8, wgs_per_group=4, iterations=1,
                          episodes=2)


def _req(benchmark):
    return RunRequest(benchmark, awg(), SCEN, validate=False)


# ---------------------------------------------------------------------------
# hung cells (satellite: a deliberately-hung cell is timed out and
# reported as a cell error while the sweep completes)
# ---------------------------------------------------------------------------

def test_hung_cell_times_out_and_sweep_survives():
    requests = [_req("SPM_G"), _req("_HANG"), _req("TB_LG")]
    matrix = run_matrix(requests, jobs=2, cache=None, cell_timeout=3,
                        retries=0)
    assert matrix[0].ok
    assert matrix[2].ok
    assert matrix.cells[1].failure["type"] == "CellTimeoutError"
    assert "wall-clock budget" in matrix.cells[1].failure["message"]
    errors = matrix.errors
    assert len(errors) == 1
    assert errors[0].index == 1
    assert errors[0].failure["type"] == "CellTimeoutError"
    with pytest.raises(CellError, match="_HANG"):
        matrix[1]


def test_hung_cell_times_out_in_process_too():
    # jobs=1 runs serial in the main thread, where SIGALRM still fires
    matrix = run_matrix([_req("_HANG"), _req("SPM_G")], jobs=1, cache=None,
                        cell_timeout=2, retries=0)
    assert matrix.cells[0].failure["type"] == "CellTimeoutError"
    assert matrix[1].ok


def test_hung_cell_times_out_off_the_main_thread():
    """Regression: SIGALRM only arms on the main thread, and the old
    code silently ran with NO timeout anywhere else (signal.signal
    raises ValueError off-main, which was swallowed) — a hung cell
    would wedge any embedding that drives run_matrix from a thread.
    The subprocess fallback must bound it."""
    import threading
    import time

    box = {}

    def _drive():
        box["matrix"] = run_matrix(
            [_req("_HANG"), _req("SPM_G")], jobs=1, cache=None,
            cell_timeout=2, retries=0)

    start = time.monotonic()
    thread = threading.Thread(target=_drive)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), \
        "run_matrix hung: the cell timeout never fired off-main-thread"
    assert time.monotonic() - start < 60
    matrix = box["matrix"]
    failure = matrix.cells[0].failure
    assert failure["type"] == "CellTimeoutError"
    assert failure["classification"] == "environmental"
    assert "subprocess fallback" in failure["message"]
    assert matrix[1].ok  # the sweep survives and runs the next cell


# ---------------------------------------------------------------------------
# killed workers (BrokenProcessPool recovery)
# ---------------------------------------------------------------------------

def test_killed_worker_is_retried_and_sweep_recovers(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.experiments.matrix.RETRY_BACKOFF", 0.05)
    sentinel = tmp_path / "kill-once"
    sentinel.write_text("armed")
    monkeypatch.setenv(STRESS_KILL_ENV, str(sentinel))
    requests = [_req("_KILL"), _req("SPM_G")]
    matrix = run_matrix(requests, jobs=2, cache=None, retries=2)
    # the first attempt consumed the sentinel and died; the retry ran
    # the same cell to completion, and no other cell was lost
    assert not sentinel.exists()
    assert matrix[0].ok
    assert matrix[1].ok
    assert not matrix.errors


def test_exhausted_retries_become_structured_failures(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.experiments.matrix.RETRY_BACKOFF", 0.05)
    sentinel = tmp_path / "kill-once"
    sentinel.write_text("armed")
    monkeypatch.setenv(STRESS_KILL_ENV, str(sentinel))
    requests = [_req("_KILL"), _req("SPM_G")]
    matrix = run_matrix(requests, jobs=2, cache=None, retries=0)
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
        assert "attempt" in err.failure["message"]


# ---------------------------------------------------------------------------
# try_get degradation
# ---------------------------------------------------------------------------

def test_try_get_returns_default_for_failed_or_missing_cells():
    matrix = run_matrix([_req("_HANG"), _req("SPM_G")], jobs=1, cache=None,
                        cell_timeout=2, retries=0)
    assert matrix.try_get("_HANG", "AWG") is None
    assert matrix.try_get("NO_SUCH", "AWG") is None
    assert matrix.try_get("SPM_G", "AWG").ok


# ---------------------------------------------------------------------------
# env knobs
# ---------------------------------------------------------------------------

def test_resolve_cell_timeout(monkeypatch):
    monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
    assert resolve_cell_timeout(None) is None
    assert resolve_cell_timeout(5) == 5
    assert resolve_cell_timeout(0) is None     # <= 0 means unlimited
    assert resolve_cell_timeout(-1) is None
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "7.5")
    assert resolve_cell_timeout(None) == 7.5
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
    assert resolve_cell_timeout(None) is None
    monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
    with pytest.raises(ConfigError, match="REPRO_CELL_TIMEOUT"):
        resolve_cell_timeout(None)


def test_resolve_cell_retries(monkeypatch):
    monkeypatch.delenv("REPRO_CELL_RETRIES", raising=False)
    assert resolve_cell_retries(None) == 2
    assert resolve_cell_retries(0) == 0
    assert resolve_cell_retries(-3) == 0
    monkeypatch.setenv("REPRO_CELL_RETRIES", "5")
    assert resolve_cell_retries(None) == 5
    monkeypatch.setenv("REPRO_CELL_RETRIES", "many")
    with pytest.raises(ConfigError, match="REPRO_CELL_RETRIES"):
        resolve_cell_retries(None)
