"""Cache key stability and invalidation tests.

The content-addressed key must change when anything that can change the
simulation result changes — policy parameters, scenario fields, config
overrides, param overrides, or the code fingerprint — and must NOT
change for a respecified-but-identical cell.
"""

import dataclasses
import json

import pytest

from repro.core.policies import awg, monnr_one, sleep
from repro.experiments.cache import (
    ResultCache, code_fingerprint, default_cache, default_cache_dir,
    payload_digest,
)
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import QUICK_SCALE, RunResult

SCEN = QUICK_SCALE


def _key(cache, **overrides):
    base = dict(
        benchmark="SPM_G", policy=awg(), scenario=SCEN,
    )
    base.update(overrides)
    return cache.key_for(RunRequest(**base).spec())


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path, fingerprint="fp0")


def test_identical_specs_share_a_key(cache):
    assert _key(cache) == _key(cache)
    # a freshly constructed but equal policy/scenario hits the same key
    assert _key(cache, policy=awg()) == _key(cache, policy=awg())


def test_policy_params_change_key(cache):
    assert _key(cache, policy=awg()) != _key(cache, policy=monnr_one())
    assert _key(cache, policy=awg(straggler_timeout=20_000)) != \
        _key(cache, policy=awg(straggler_timeout=30_000))
    assert _key(cache, policy=sleep(16_000)) != \
        _key(cache, policy=sleep(16_000, backoff_min=128))


def test_scenario_fields_change_key(cache):
    assert _key(cache, scenario=SCEN) != \
        _key(cache, scenario=SCEN.scaled(total_wgs=16))
    assert _key(cache, scenario=SCEN) != \
        _key(cache, scenario=SCEN.scaled(seed=2))
    assert _key(cache, scenario=SCEN) != \
        _key(cache, scenario=SCEN.scaled(resource_loss_at_us=5.0))


def test_overrides_change_key(cache):
    assert _key(cache) != \
        _key(cache, config_overrides={"syncmon_sets": 1})
    assert _key(cache, config_overrides={"syncmon_sets": 1}) != \
        _key(cache, config_overrides={"syncmon_sets": 2})
    assert _key(cache) != _key(cache, param_overrides={"iterations": 5})
    assert _key(cache) != _key(cache, validate=False)


def test_benchmark_changes_key(cache):
    assert _key(cache, benchmark="SPM_G") != _key(cache, benchmark="TB_LG")


def test_code_fingerprint_changes_key(tmp_path):
    a = ResultCache(tmp_path, fingerprint="fp0")
    b = ResultCache(tmp_path, fingerprint="fp1")
    assert _key(a) != _key(b)


def test_code_fingerprint_is_stable_and_nonempty():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 16


def test_round_trip_preserves_every_field(cache):
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=12345, completed=True, deadlocked=False, reason="completed",
        atomics=678, waiting_atomics=90, context_switches=3,
        wg_running_cycles=1000, wg_waiting_cycles=250,
        stats={"l2.hit_rate": 0.123456789, "syncmon.spills": 4.0},
    )
    cache.put("k" * 64, result)
    loaded = cache.get("k" * 64)
    assert dataclasses.asdict(loaded) == dataclasses.asdict(result)
    assert cache.hits == 1 and cache.stores == 1


def test_round_trip_preserves_trace_document(cache):
    """RunResult.trace (a whole Chrome-trace dict) survives the cache
    like ``diagnosis`` does, including the ``awg`` sidecar."""
    trace = {
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "t"}},
            {"ph": "X", "name": "running", "cat": "wg", "ts": 0, "dur": 9,
             "pid": 1, "tid": 1, "args": {}},
        ],
        "displayTimeUnit": "ms",
        "otherData": {"label": "t", "clock": "c", "generator": "repro.trace"},
        "awg": {"recorded": 2, "dropped": 0, "categories": ["wg"]},
    }
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=9, completed=True, deadlocked=False, reason="completed",
        atomics=1, waiting_atomics=0, context_switches=0,
        wg_running_cycles=9, wg_waiting_cycles=0,
        stats={"device.atomics": 1.0}, trace=trace,
    )
    cache.put("t" * 64, result)
    loaded = cache.get("t" * 64)
    assert loaded.trace == trace
    from repro.trace.export import validate_chrome_trace
    assert validate_chrome_trace(loaded.trace) == []


def test_get_miss_and_corrupt_entry(cache, tmp_path):
    assert cache.get("0" * 64) is None
    assert cache.healed == 0  # a plain miss is not a heal
    path = tmp_path / "aa" / ("a" * 64 + ".json")
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert cache.get("a" * 64) is None
    assert cache.misses == 2
    assert cache.healed == 1  # ...but a corrupt entry is


def test_corrupt_entry_self_heals(cache):
    """A torn/truncated entry is deleted on read, so the cell
    re-simulates and overwrites it instead of failing every sweep."""
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=1, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0,
    )
    key = "e" * 64
    cache.put(key, result)
    path = cache._path(key)
    path.write_text(path.read_text()[:20])  # truncate: torn write
    assert cache.get(key) is None
    assert cache.healed == 1
    assert not path.exists()  # deleted, not left to poison future reads
    cache.put(key, result)    # and the slot is immediately reusable
    assert cache.get(key).cycles == 1


def test_put_is_atomic_leaves_no_temp_files(cache):
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=1, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0,
    )
    key = "f" * 64
    cache.put(key, result)
    entries = list(cache._path(key).parent.iterdir())
    assert [p.name for p in entries] == [f"{key}.json"]


def test_diagnosis_survives_the_round_trip(cache):
    diagnosis = {"kind": "deadlock", "reason": "watchdog", "cycle": 42,
                 "stalls": [{"wg_id": 3, "state": "switched_out"}]}
    result = RunResult(
        benchmark="SPM_G", policy="Baseline", scenario="quick",
        cycles=42, completed=False, deadlocked=True, reason="watchdog",
        atomics=0, waiting_atomics=0, context_switches=1,
        wg_running_cycles=0, wg_waiting_cycles=0, diagnosis=diagnosis,
    )
    cache.put("9" * 64, result)
    assert cache.get("9" * 64).diagnosis == diagnosis


def test_clear_and_entry_count(cache):
    result = RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=1, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0,
    )
    cache.put("c" * 64, result)
    cache.put("d" * 64, result)
    assert cache.entry_count() == 2
    assert cache.clear() == 2
    assert cache.entry_count() == 0


def test_clear_removes_only_what_the_cache_wrote(cache, tmp_path):
    """``clear()`` deletes entries (torn ones too), temp residue and
    emptied shards; a cache root pointed at a directory holding other
    files must not lose them."""
    result = _simple_result()
    for key in ("a" * 64, "b" * 64, "c" * 64):
        cache.put(key, result)
    torn = cache._path("c" * 64)
    torn.write_text("{")
    (tmp_path / "aa" / f".{'a' * 64}.json.123.tmp").write_text("residue")
    foreign = [tmp_path / "notes.txt", tmp_path / "work" / "data.json",
               tmp_path / "bb" / "README"]
    for path in foreign:
        path.parent.mkdir(exist_ok=True)
        path.write_text("not the cache's")

    assert cache.clear() == 3
    assert all(path.read_text() == "not the cache's" for path in foreign)
    assert cache.entry_count() == 0
    assert sorted(p.relative_to(tmp_path).as_posix()
                  for p in tmp_path.rglob("*")) == [
        "bb", "bb/README", "notes.txt", "work", "work/data.json"]


def test_env_opt_outs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
    assert default_cache_dir() == tmp_path / "c"
    assert default_cache().root == tmp_path / "c"


def _simple_result(cycles=1):
    return RunResult(
        benchmark="SPM_G", policy="AWG", scenario="quick",
        cycles=cycles, completed=True, deadlocked=False, reason="completed",
        atomics=0, waiting_atomics=0, context_switches=0,
        wg_running_cycles=0, wg_waiting_cycles=0,
    )


# ---------------------------------------------------------------------------
# integrity check on every read
# ---------------------------------------------------------------------------

def _truncate(document, text):
    return text[:40]


def _drop_result(document, text):
    del document["result"]


def _pre_digest(document, text):
    del document["digest"], document["key"]


def _foreign_key(document, text):
    document["key"] = "5" * 64


def _tamper_payload(document, text):
    document["result"]["cycles"] = 999_999  # silent corruption


def _unbuildable_payload(document, text):
    # an unknown field: the digest is re-stamped so only the rebuild
    # of the RunResult can catch it
    document["result"]["no_such_field"] = 1
    document["digest"] = payload_digest(document["result"])


@pytest.mark.parametrize("corrupt, problem", [
    (_truncate, "unreadable JSON"),
    (_drop_result, "no result payload"),
    (_pre_digest, "pre-digest"),
    (_foreign_key, "does not match filename"),
    (_tamper_payload, "digest mismatch"),
    (_unbuildable_payload, "does not reconstruct a RunResult"),
], ids=["truncated", "no-result", "pre-digest", "key-mismatch",
        "digest-mismatch", "not-a-RunResult"])
def test_get_heals_every_corruption_the_check_names(cache, corrupt, problem):
    """Each corruption trips its own branch of the per-read check, and
    ``get()`` deletes the entry and reports a miss, so the cell
    re-simulates instead of being served."""
    key = "4" * 64
    cache.put(key, _simple_result(cycles=7))
    path = cache._path(key)
    text = path.read_text()
    document = json.loads(text)
    replacement = corrupt(document, text)
    path.write_text(replacement if replacement is not None
                    else json.dumps(document))
    assert problem in cache._check_entry(path)[1]
    assert cache.get(key) is None
    assert cache.healed == 1
    assert not path.exists()


# ---------------------------------------------------------------------------
# concurrent writers of one key
# ---------------------------------------------------------------------------

_PUT_RIVAL = """\
import sys
from repro.experiments.cache import ResultCache
from repro.experiments.runner import RunResult

root, key = sys.argv[1], sys.argv[2]
result = RunResult(
    benchmark="SPM_G", policy="AWG", scenario="quick",
    cycles=7, completed=True, deadlocked=False, reason="completed",
    atomics=0, waiting_atomics=0, context_switches=0,
    wg_running_cycles=0, wg_waiting_cycles=0,
)
cache = ResultCache(root, fingerprint="fp0")
for _ in range(25):
    cache.put(key, result)
"""


def test_concurrent_puts_leave_one_intact_entry(cache, tmp_path):
    """Multiprocess stress: rival writers hammering one key must end
    with exactly one intact entry and zero temp residue."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    key = "c3" + "0" * 62
    rivals = [
        subprocess.Popen([sys.executable, "-c", _PUT_RIVAL,
                          str(cache.root), key], env=env)
        for _ in range(6)
    ]
    for proc in rivals:
        assert proc.wait(timeout=60) == 0
    assert cache.get(key).cycles == 7
    assert cache.healed == 0
    residue = [p.name for p in cache._path(key).parent.iterdir()
               if p.name != f"{key}.json"]
    assert residue == [], f"leftover temp files: {residue}"
