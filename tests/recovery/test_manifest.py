"""Sweep checkpoint manifest semantics.

The manifest's identity and discard rules are the load-bearing part of
crash-resume correctness: the same sweep must find its manifest again,
a *different* sweep or *changed code* must not adopt stale results, and
torn entries must re-simulate rather than resurrect garbage.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import RunResult
from repro.recovery.manifest import (
    MANIFEST_VERSION, SweepCheckpoint, cell_key, list_manifests,
    load_manifest, resolve_flush_interval, sweep_key,
)

SPECS = [
    {"benchmark": "SPM_G", "policy": {"name": "AWG"}, "scenario": {"s": 1}},
    {"benchmark": "FAM_G", "policy": {"name": "AWG"}, "scenario": {"s": 1}},
    {"benchmark": "TB_LG", "policy": {"name": "AWG"}, "scenario": {"s": 1}},
]


def _result(bench="SPM_G", cycles=100):
    return RunResult(
        benchmark=bench, policy="AWG", scenario="quick",
        cycles=cycles, completed=True, deadlocked=False, reason="completed",
        atomics=1, waiting_atomics=0, context_switches=0,
        wg_running_cycles=10, wg_waiting_cycles=2,
        stats={"x": 1.5},
    )


def test_cell_and_sweep_keys_are_stable_and_order_sensitive():
    assert cell_key(SPECS[0]) == cell_key(dict(SPECS[0]))
    assert cell_key(SPECS[0]) != cell_key(SPECS[1])
    assert sweep_key(SPECS) == sweep_key([dict(s) for s in SPECS])
    assert sweep_key(SPECS) != sweep_key(list(reversed(SPECS)))


def test_record_flush_reopen_resumes(tmp_path):
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    assert ck.discarded is None and ck.resumed == 0
    ck.record(cell_key(SPECS[0]), _result())
    ck.record(cell_key(SPECS[1]), _result("FAM_G", cycles=222))
    assert ck.path.exists()

    again = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    assert again.resumed == 2 and again.discarded is None
    assert again.get(cell_key(SPECS[0])).cycles == 100
    loaded = again.get(cell_key(SPECS[1]))
    assert loaded.cycles == 222 and loaded.stats == {"x": 1.5}
    assert again.get(cell_key(SPECS[2])) is None  # still to run


def test_complete_deletes_when_done_keeps_when_partial(tmp_path):
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    ck.record(cell_key(SPECS[0]), _result())
    ck.complete()  # 1/3 done: manifest must survive for the resume
    assert ck.path.exists()
    for spec in SPECS[1:]:
        ck.record(cell_key(spec), _result(spec["benchmark"]))
    assert ck.done
    ck.complete()  # 3/3: nothing left to resume
    assert not ck.path.exists()


def test_changed_fingerprint_discards_stale_manifest(tmp_path):
    """Satellite: resumed sweep under new code must restart, not adopt
    results simulated by old code."""
    old = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp-old")
    old.record(cell_key(SPECS[0]), _result())
    assert old.path.exists()

    new = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp-new")
    assert new.resumed == 0
    assert new.discarded is not None and "fingerprint" in new.discarded
    assert not new.path.exists()  # stale file deleted, not left around


def test_version_drift_discards(tmp_path):
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    ck.record(cell_key(SPECS[0]), _result())
    document = json.loads(ck.path.read_text())
    document["version"] = MANIFEST_VERSION + 1
    ck.path.write_text(json.dumps(document))
    again = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    assert again.resumed == 0 and "version" in again.discarded


def test_torn_completed_entry_is_skipped_not_adopted(tmp_path):
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    ck.record(cell_key(SPECS[0]), _result())
    ck.record(cell_key(SPECS[1]), _result("FAM_G"))
    document = json.loads(ck.path.read_text())
    key = cell_key(SPECS[1])
    document["completed"][key]["result"]["cycles"] = -777  # digest now wrong
    ck.path.write_text(json.dumps(document))
    again = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    assert again.resumed == 1  # the intact cell
    assert again.get(cell_key(SPECS[0])) is not None
    assert again.get(key) is None  # the torn cell re-simulates


_RIVAL_RECORDER = """\
import sys
from repro.experiments.runner import RunResult
from repro.recovery.manifest import SweepCheckpoint, cell_key

root, which, cycles = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
SPECS = [
    {"benchmark": "SPM_G", "policy": {"name": "AWG"}, "scenario": {"s": 1}},
    {"benchmark": "FAM_G", "policy": {"name": "AWG"}, "scenario": {"s": 1}},
    {"benchmark": "TB_LG", "policy": {"name": "AWG"}, "scenario": {"s": 1}},
]
result = RunResult(
    benchmark=SPECS[which]["benchmark"], policy="AWG", scenario="quick",
    cycles=cycles, completed=True, deadlocked=False, reason="completed",
    atomics=1, waiting_atomics=0, context_switches=0,
    wg_running_cycles=10, wg_waiting_cycles=2, stats={"x": 1.5},
)
for _ in range(15):
    # re-open each round so each flush races the rival's AND adopts
    # whatever the rival managed to land in between
    ck = SweepCheckpoint.open(SPECS, root=root, fingerprint="fp0",
                              flush_interval=0)
    ck.record(cell_key(SPECS[which]), result)
    ck.flush(force=True)
"""


def test_concurrent_appenders_and_torn_entry_skip(tmp_path):
    """Two processes recording into the same sweep manifest (two
    operators resuming the same sweep) must never tear it: every
    observable manifest state parses, and after the dust settles a
    tampered completed entry is digest-skipped while intact rival
    entries are adopted."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    rivals = [
        subprocess.Popen([sys.executable, "-c", _RIVAL_RECORDER,
                          str(tmp_path), str(which), str(cycles)], env=env)
        for which, cycles in ((0, 100), (2, 300))
    ]
    for proc in rivals:
        assert proc.wait(timeout=60) == 0

    # atomic replace means concurrent flushers can lose updates but
    # never corrupt: the surviving manifest parses and carries at least
    # the last flusher's cell
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    assert ck.discarded is None
    assert ck.resumed >= 1
    adopted = [key for key in ck.keys if key in ck.completed]
    assert adopted

    # tamper one adopted entry: its digest-skip must not take the
    # intact neighbours down with it
    ck.flush(force=True)
    document = json.loads(ck.path.read_text())
    victim = adopted[0]
    document["completed"][victim]["result"]["cycles"] = -1
    ck.path.write_text(json.dumps(document))
    again = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    assert again.discarded is None
    assert again.get(victim) is None  # torn entry re-simulates
    for key in adopted[1:]:
        assert again.get(key) is not None  # intact ones are kept


def test_unreadable_manifest_discards(tmp_path):
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    ck.record(cell_key(SPECS[0]), _result())
    ck.path.write_text("{torn")
    again = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    assert again.resumed == 0 and "unreadable" in again.discarded


def test_flush_is_atomic_no_temp_residue(tmp_path):
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    ck.record(cell_key(SPECS[0]), _result())
    assert [p.name for p in tmp_path.iterdir()] == [ck.path.name]


def test_flush_throttle(tmp_path):
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0",
                              flush_interval=3600.0)
    ck.record(cell_key(SPECS[0]), _result())  # first flush always lands
    assert ck.path.exists()
    before = ck.path.read_text()
    ck.record(cell_key(SPECS[1]), _result("FAM_G"))  # throttled
    assert ck.path.read_text() == before
    ck.flush(force=True)
    assert ck.path.read_text() != before


def test_resolve_flush_interval_env(monkeypatch):
    assert resolve_flush_interval(None) == 0.0
    monkeypatch.setenv("REPRO_CHECKPOINT_FLUSH", "2.5")
    assert resolve_flush_interval(None) == 2.5
    assert resolve_flush_interval(9.0) == 9.0  # explicit arg wins
    monkeypatch.setenv("REPRO_CHECKPOINT_FLUSH", "nope")
    with pytest.raises(ConfigError):
        resolve_flush_interval(None)


def test_manifest_document_schema(tmp_path):
    """The on-disk layout resume and the CLI depend on."""
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    ck.mark_in_flight([cell_key(s) for s in SPECS])
    ck.record(cell_key(SPECS[0]), _result())
    document = json.loads(ck.path.read_text())
    assert sorted(document) == [
        "cells", "completed", "created_at", "fingerprint", "in_flight",
        "provenance", "sweep_key", "updated_at", "version",
    ]
    assert document["version"] == MANIFEST_VERSION
    assert document["sweep_key"] == sweep_key(SPECS)
    assert [c["key"] for c in document["cells"]] == \
        [cell_key(s) for s in SPECS]
    assert [c["spec"] for c in document["cells"]] == SPECS
    entry = document["completed"][cell_key(SPECS[0])]
    assert set(entry) == {"result", "digest"}
    # recording removed the completed cell from the in-flight list
    assert cell_key(SPECS[0]) not in document["in_flight"]
    assert set(document["in_flight"]) == {cell_key(s) for s in SPECS[1:]}


def test_list_and_load_manifests(tmp_path):
    assert list_manifests(tmp_path) == []
    ck = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="fp0")
    ck.record(cell_key(SPECS[0]), _result())
    other = SweepCheckpoint.open(SPECS[:1], root=tmp_path, fingerprint="fp0")
    other.record(cell_key(SPECS[0]), _result())

    listed = list_manifests(tmp_path)
    assert {m["sweep_key"] for m in listed} == \
        {sweep_key(SPECS), sweep_key(SPECS[:1])}
    assert all(m["completed"] == 1 for m in listed)

    document = load_manifest(sweep_key(SPECS), tmp_path)
    assert document["sweep_key"] == sweep_key(SPECS)
    with pytest.raises(ConfigError, match="no checkpoint manifest"):
        load_manifest("ffff0000", tmp_path)
    # an ambiguous prefix (here: empty matches both) is an error
    with pytest.raises(ConfigError, match="ambiguous"):
        load_manifest("", tmp_path)
