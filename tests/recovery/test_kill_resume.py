"""Kill-and-resume: an interrupted sweep resumes from the result cache.

A sweep is killed mid-flight in a subprocess (its script makes the
third cell SIGKILL the process — a real crash, no cleanup handlers). Every cell
that completed before the crash is already in the result cache, so
re-running the sweep against the same cache must:

- serve exactly those cells as cache hits and execute only the rest
  (proved with the hit/miss counters and the surviving entry count,
  not timings), and
- produce results bit-identical to an uninterrupted run of the same
  sweep.

A second test delivers SIGTERM instead: the signal handler must exit
with the conventional 128+signum, and the rerun must hit every cell
that reached the cache. The last tests pin the interruption message to
what the sweep actually had: a cache to resume from, or none.
"""

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.cache import RESULT_FIELDS, ResultCache
from repro.experiments.matrix import RunRequest, SweepInterrupted, run_matrix

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: both the child process and the test build the sweep from this exact
#: snippet, so the cells' cache keys match across processes
REQUESTS_SNIPPET = """
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

#: the SIGTERM child runs a slower sweep so the signal reliably lands
#: mid-flight (the quick cells finish in well under a second)
SLOW_REQUESTS_SNIPPET = """
from repro.core.policies import named_policy
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import QUICK_SCALE

SLOW = QUICK_SCALE.scaled(label="slow", iterations=4, episodes=16)


def build_requests():
    benches = ["SPM_G", "FAM_G", "TB_LG", "SLM_G", "SPM_L"]
    return [
        RunRequest(bench, named_policy("awg"), SLOW, validate=False)
        for bench in benches
    ]
"""

#: prepended to the SIGKILL test's child: the kill drill
KILL_DRILL = """
import os
import signal

execute = RunRequest.execute


def kill_in_killed_cell(request):
    if request.benchmark == KILLED:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute(request)


RunRequest.execute = kill_in_killed_cell
"""

CHILD_MAIN = """
import sys
from repro.experiments.cache import ResultCache
from repro.experiments.matrix import SweepInterrupted, run_matrix

try:
    run_matrix(build_requests(), jobs=1, cache=ResultCache(sys.argv[1]))
except SweepInterrupted as exc:
    sys.exit(128 + exc.signum)
"""


def _build_requests(snippet=REQUESTS_SNIPPET):
    namespace = {}
    exec(snippet, namespace)
    return namespace["build_requests"]()


def _result_fields(result):
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def _spawn_child(tmp_path, cache_dir, snippet):
    script = tmp_path / "child_sweep.py"
    script.write_text(snippet + CHILD_MAIN)
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, str(script), str(cache_dir)],
        env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def test_sigkill_resume_is_bit_identical_and_reexecutes_nothing(tmp_path):
    cache_dir = tmp_path / "cache"

    # 1. the sweep crashes hard (SIGKILL from inside the 3rd cell)
    child = _spawn_child(tmp_path, cache_dir, REQUESTS_SNIPPET + KILL_DRILL)
    child.communicate(timeout=300)
    assert child.returncode == -signal.SIGKILL
    assert ResultCache(cache_dir).entry_count() == 2  # SPM_G, FAM_G

    # 2. rerun in-process: the 2 cached cells hit, only the 3
    # unfinished cells execute
    requests = _build_requests()
    resumed = run_matrix(requests, jobs=1, cache=ResultCache(cache_dir))
    assert not resumed.errors
    assert (resumed.cache_hits, resumed.cache_misses) == (2, 3)
    assert [cell.from_cache for cell in resumed.cells] == \
        [True, True, False, False, False]

    # 3. bit-identity against an uninterrupted run of the same sweep
    uninterrupted = run_matrix(_build_requests(), jobs=1, cache=None)
    assert not uninterrupted.errors
    for index in range(len(requests)):
        assert _result_fields(resumed[index]) == \
            _result_fields(uninterrupted[index]), \
            f"cell {index} diverged after crash-resume"


def test_sigterm_flushes_checkpoint_and_exits_resumable(tmp_path):
    """The completed cells' cache entries are the checkpoint: each was
    written atomically as the cell settled, before the signal."""
    cache_dir = tmp_path / "cache"

    # de-flake: the signal must land while the sweep is mid-flight; on
    # a loaded machine the first attempt can finish first, so retry.
    # One cache entry means cell 1 completed and cell 2 is running when
    # SIGTERM arrives.
    for attempt in range(3):
        child = _spawn_child(tmp_path, cache_dir,
                             snippet=SLOW_REQUESTS_SNIPPET)
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if ResultCache(cache_dir).entry_count() >= 1:
                break
            time.sleep(0.01)
        child.send_signal(signal.SIGTERM)
        _out, err = child.communicate(timeout=300)
        if child.returncode == 128 + signal.SIGTERM:
            break
        shutil.rmtree(cache_dir, ignore_errors=True)  # finished: retry
    else:
        raise AssertionError(
            f"SIGTERM never interrupted the sweep (last rc "
            f"{child.returncode}, stderr: {err.decode()[-500:]})")

    entries = ResultCache(cache_dir).entry_count()
    assert 0 < entries < 5

    # the rerun finishes the sweep, serving every surviving entry
    result = run_matrix(_build_requests(SLOW_REQUESTS_SNIPPET), jobs=1,
                        cache=ResultCache(cache_dir))
    assert not result.errors
    assert result.cache_hits == entries
    assert result.cache_misses == 5 - entries


def _interrupt_first_cell(monkeypatch):
    """Make the first executed cell deliver SIGTERM to this process;
    at jobs=1 the sweep's handler raises inside that cell."""
    def execute(self):
        signal.raise_signal(signal.SIGTERM)
        raise AssertionError("the sweep's SIGTERM handler did not fire")

    monkeypatch.setattr(RunRequest, "execute", execute)


def test_interrupt_with_cache_says_rerun_continues(tmp_path, monkeypatch):
    _interrupt_first_cell(monkeypatch)
    with pytest.raises(SweepInterrupted) as exc:
        run_matrix(_build_requests()[:1], jobs=1,
                   cache=ResultCache(tmp_path))
    assert exc.value.signum == signal.SIGTERM
    assert str(exc.value) == (
        "sweep interrupted by SIGTERM; completed cells are in the result "
        "cache; re-run to continue")


def test_interrupt_without_cache_says_rerun_starts_over(monkeypatch):
    _interrupt_first_cell(monkeypatch)
    with pytest.raises(SweepInterrupted) as exc:
        run_matrix(_build_requests()[:1], jobs=1, cache=None)
    assert str(exc.value) == (
        "sweep interrupted by SIGTERM; no result cache: a re-run starts "
        "over")
