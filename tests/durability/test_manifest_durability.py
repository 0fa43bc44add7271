"""Checkpoint-manifest durability: degraded flushes + the
flush-on-every-exit-path guarantee of ``run_matrix``.

The regression this file pins down: an unexpected exception escaping
``run_matrix`` used to skip the final manifest flush, losing every
cell completed since the last throttled flush; now ALL exit paths
force-flush, so the resumed sweep re-executes nothing it already paid
for.
"""

import os
from pathlib import Path

import pytest

from repro.core.policies import awg
from repro.durability.vfs import DurabilityPlan, armed
from repro.experiments.matrix import RunRequest, run_matrix
from repro.experiments.runner import QUICK_SCALE
from repro.recovery.manifest import SweepCheckpoint, cell_key
from tests.durability.conftest import sample_result

SCEN = QUICK_SCALE.scaled(total_wgs=8, wgs_per_group=4, iterations=1,
                          episodes=2)

SPECS = [{"cell": "a"}, {"cell": "b"}, {"cell": "c"}]


def _requests():
    return [RunRequest("SPM_G", awg(), SCEN),
            RunRequest("TB_LG", awg(), SCEN)]


def _exec_counts(log_path):
    counts = {}
    if not os.path.exists(log_path):
        return counts
    for line in Path(log_path).read_text().splitlines():
        bench = line.split("\t")[0]
        counts[bench] = counts.get(bench, 0) + 1
    return counts


def test_flush_failure_degrades_to_warning_and_retries(tmp_path):
    ckpt = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="t")
    result = sample_result()
    plan = DurabilityPlan(name="dead-disk", seed=1, eio_prob=1.0)
    with armed(tmp_path, plan=plan):
        with pytest.warns(RuntimeWarning, match="manifest flush"):
            ckpt.record(cell_key(SPECS[0]), result)
    assert ckpt.flush_failures == 1
    assert not ckpt.path.exists()
    assert ckpt._dirty  # the state survives for the next attempt

    # the disk recovers: the very next flush persists everything
    assert ckpt.flush(force=True)
    assert ckpt.path.exists()
    resumed = SweepCheckpoint.open(SPECS, root=tmp_path, fingerprint="t")
    assert resumed.resumed == 1
    assert resumed.get(cell_key(SPECS[0])).cycles == result.cycles


def test_run_matrix_flushes_manifest_on_unexpected_exception(
        tmp_path, monkeypatch):
    """Kill-and-resume, exception variant: a crash AFTER the cells ran
    but before the normal epilogue must still leave every completed
    cell in the manifest (the forced flush on the exception path), and
    the resumed sweep must adopt them instead of re-simulating."""
    ckpt_dir = tmp_path / "ckpt"
    exec_log = tmp_path / "exec.log"
    monkeypatch.setenv("REPRO_EXEC_LOG", str(exec_log))
    # throttle unforced flushes hard: only the first record's flush
    # lands on its own, so cell 2 reaching the manifest PROVES the
    # exception path forced a flush
    monkeypatch.setenv("REPRO_CHECKPOINT_FLUSH", "3600")

    def boom(self):
        raise RuntimeError("simulated crash in the sweep epilogue")

    monkeypatch.setattr(SweepCheckpoint, "complete", boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_matrix(_requests(), jobs=1, cache=None, checkpoint=ckpt_dir)

    executed = _exec_counts(exec_log)
    assert executed == {"SPM_G": 1, "TB_LG": 1}
    manifests = list(ckpt_dir.glob("*.json"))
    assert len(manifests) == 1

    # resume: every cell adopted from the manifest, nothing re-executed
    monkeypatch.undo()
    monkeypatch.setenv("REPRO_EXEC_LOG", str(exec_log))
    resumed = run_matrix(_requests(), jobs=1, cache=None,
                         checkpoint=ckpt_dir)
    assert resumed.resumed == 2
    assert _exec_counts(exec_log) == executed  # no new executions
    fresh = run_matrix(_requests(), jobs=1, cache=None)
    for a, b in zip(resumed, fresh):
        assert a.cycles == b.cycles and a.stats == b.stats
    # the completed sweep cleaned its manifest up
    assert list(ckpt_dir.glob("*.json")) == []
