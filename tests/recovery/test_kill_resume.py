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

A second test delivers SIGTERM to ``python -m repro`` instead:
``cli.main`` must exit with the conventional 128+signum, and the rerun
must hit every cell that reached the cache. The last test interrupts a
paper-scale sweep at ``--jobs 2`` with SIGTERM and SIGINT: the command
exits 143 and 130, and none of its pool's workers outlives it.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import fig7
from repro.experiments.cache import ResultCache, result_to_payload
from repro.experiments.matrix import run_matrix
from repro.experiments.runner import QUICK_SCALE

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
from repro.experiments.matrix import run_matrix

run_matrix(build_requests(), jobs=1, cache=ResultCache(sys.argv[1]))
"""


def _build_requests():
    namespace = {}
    exec(REQUESTS_SNIPPET, namespace)
    return namespace["build_requests"]()


def _spawn(tmp_path, args, **env):
    return subprocess.Popen(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC, **env),
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _spawn_child(tmp_path, cache_dir, snippet):
    script = tmp_path / "child_sweep.py"
    script.write_text(snippet + CHILD_MAIN)
    return _spawn(tmp_path, [str(script), str(cache_dir)])


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
        assert result_to_payload(resumed[index]) == \
            result_to_payload(uninterrupted[index]), \
            f"cell {index} diverged after crash-resume"


def test_sigterm_flushes_checkpoint_and_exits_resumable(tmp_path):
    """The completed cells' cache entries are the checkpoint: each was
    written atomically as the cell settled, before the signal."""
    cache_dir = tmp_path / "cache"
    command = ["-m", "repro", "fig7", "--quick", "--jobs", "1"]

    # de-flake: the signal must land while the sweep is mid-flight; on
    # a loaded machine the first attempt can finish first, so retry.
    # One cache entry means the sweep is running when SIGTERM arrives.
    for attempt in range(3):
        child = _spawn(tmp_path, command, REPRO_CACHE_DIR=str(cache_dir))
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if ResultCache(cache_dir).entry_count() >= 1:
                break
            time.sleep(0.005)
        child.send_signal(signal.SIGTERM)
        _out, err = child.communicate(timeout=300)
        if child.returncode == 128 + signal.SIGTERM:
            break
        shutil.rmtree(cache_dir, ignore_errors=True)  # finished: retry
    else:
        raise AssertionError(
            f"SIGTERM never interrupted the sweep (last rc "
            f"{child.returncode}, stderr: {err.decode()[-500:]})")
    assert err.decode().strip().splitlines()[-1] == (
        "interrupted by SIGTERM; a re-run resumes from the result cache")

    entries = ResultCache(cache_dir).entry_count()
    assert 0 < entries < 60

    # the rerun finishes the sweep, serving every surviving entry
    cache = ResultCache(cache_dir)
    fig7.run(QUICK_SCALE, jobs=1, cache=cache)
    assert cache.hits == entries
    assert cache.misses == 60 - entries


def _children(pid):
    """The pids of ``pid``'s child processes, over all its threads."""
    pids = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                pids.update(int(word) for word in fh.read().split())
        except OSError:  # the thread exited
            pass
    return pids


def _alive(pid):
    """Whether ``pid`` runs: it exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not glob.glob("/proc/self/task/*/children"),
                    reason="needs /proc/<pid>/task/<tid>/children")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                         ids=["SIGTERM", "SIGINT"])
def test_interrupted_pool_sweep_exits_and_leaves_no_worker(tmp_path, signum):
    """A paper-scale sweep (several seconds) is interrupted once both
    pool workers run a cell. The command exits 128+signum at once,
    without waiting for the cells in flight, and no worker outlives it:
    a parent left to SIGTERM's default action would orphan them."""
    # stderr goes to a file: an orphaned worker would hold a pipe open
    err_path = tmp_path / "stderr"
    with open(err_path, "w") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "fig14", "--jobs", "2",
             "--no-cache"], env=dict(os.environ, PYTHONPATH=SRC),
            cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=err)
    workers = set()
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(child.pid)
        assert len(workers) >= 2, "the pool never started its workers"
        time.sleep(0.5)  # both workers are inside a cell
        child.send_signal(signum)
        child.wait(timeout=3)
        deadline = time.monotonic() + 1
        while any(_alive(pid) for pid in workers) and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:  # a failed run must not leak its processes
        child.kill()
        child.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
    last = err_path.read_text().strip().splitlines()[-1]
    assert child.returncode == 128 + signum, last
    assert f"interrupted by {signal.Signals(signum).name}; " in last
    assert last.endswith("a re-run starts over")
