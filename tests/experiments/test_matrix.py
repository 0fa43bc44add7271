"""Tests for the parallel experiment-matrix runner."""

import dataclasses
import json

import pytest

from repro.core.policies import awg, baseline, monnr_all
from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.matrix import (
    CellError, RunRequest, resolve_jobs, run_matrix,
)
from repro.experiments.runner import QUICK_SCALE

#: tiny cells so the matrix tests stay fast
SCEN = QUICK_SCALE.scaled(total_wgs=8, wgs_per_group=4, iterations=1,
                          episodes=2)


def _result_fields(res):
    """Every RunResult field except the (never pooled) gpu handle."""
    return {
        f.name: getattr(res, f.name)
        for f in dataclasses.fields(res) if f.name != "gpu"
    }


def test_results_in_request_order():
    requests = [
        RunRequest("SPM_G", awg(), SCEN),
        RunRequest("TB_LG", awg(), SCEN),
        RunRequest("SPM_G", monnr_all(), SCEN),
    ]
    matrix = run_matrix(requests, jobs=1, cache=None)
    assert [r.benchmark for r in matrix] == ["SPM_G", "TB_LG", "SPM_G"]
    assert [r.policy for r in matrix] == ["AWG", "AWG", "MonNR-All"]
    assert matrix.get("TB_LG", "AWG").cycles > 0


def test_jobs_1_and_jobs_4_bit_identical():
    """Determinism: the same seeded cells produce bit-identical RunResult
    fields in-process and across the process pool."""
    requests = [
        RunRequest("SPM_G", awg(), SCEN),
        RunRequest("TB_LG", monnr_all(), SCEN),
        RunRequest("FAM_G", baseline(), SCEN),
    ]
    serial = run_matrix(requests, jobs=1, cache=None)
    pooled = run_matrix(requests, jobs=4, cache=None)
    for a, b in zip(serial, pooled):
        assert _result_fields(a) == _result_fields(b)


def test_cache_round_trip_returns_equal_result(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="test")
    requests = [RunRequest("SPM_G", awg(), SCEN)]
    cold = run_matrix(requests, jobs=1, cache=cache)
    assert (cold.cache_hits, cold.cache_misses) == (0, 1)
    warm = run_matrix(requests, jobs=1, cache=cache)
    assert (warm.cache_hits, warm.cache_misses) == (1, 0)
    assert warm.cells[0].from_cache
    assert _result_fields(cold[0]) == _result_fields(warm[0])


def test_tampered_entry_with_stale_digest_is_never_served(tmp_path):
    """An entry edited after it was written — still valid JSON, but its
    payload no longer matches the stored digest — is a miss that heals,
    and the cell re-simulates: a rerun never adopts a tampered result."""
    cache = ResultCache(tmp_path, fingerprint="test")
    requests = [RunRequest("SPM_G", awg(), SCEN)]
    cold = run_matrix(requests, jobs=1, cache=cache)
    key = cache.key_for(requests[0].spec())
    path = cache._path(key)
    document = json.loads(path.read_text())
    document["result"]["cycles"] += 12345
    path.write_text(json.dumps(document))

    assert cache.get(key) is None
    assert cache.healed == 1
    assert not path.exists()
    rerun = run_matrix(requests, jobs=1, cache=cache)
    assert (rerun.cache_hits, rerun.cache_misses) == (0, 1)
    assert _result_fields(rerun[0]) == _result_fields(cold[0])


def test_cells_settle_into_the_cache_before_run_matrix_returns(
        tmp_path, monkeypatch):
    """Each cell is put into the cache as it settles, not in an
    epilogue: an exception escaping ``run_matrix`` after the cells ran
    loses nothing, and the rerun serves every cell from the cache."""
    requests = [RunRequest("SPM_G", awg(), SCEN),
                RunRequest("TB_LG", awg(), SCEN)]
    cache = ResultCache(tmp_path)

    def boom(*_args, **_kwargs):
        raise RuntimeError("simulated crash in the sweep epilogue")

    monkeypatch.setattr("repro.experiments.matrix.MatrixResult", boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_matrix(requests, jobs=1, cache=cache)
    assert cache.entry_count() == 2

    monkeypatch.undo()
    resumed = run_matrix(requests, jobs=1, cache=ResultCache(tmp_path))
    assert (resumed.cache_hits, resumed.cache_misses) == (2, 0)
    fresh = run_matrix(requests, jobs=1, cache=None)
    for a, b in zip(resumed, fresh):
        assert a.cycles == b.cycles and a.stats == b.stats


def test_checkpoint_keyword_only_accepts_false(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="test")
    requests = [RunRequest("SPM_G", awg(), SCEN)]
    assert not run_matrix(requests, jobs=1, cache=cache,
                          checkpoint=False).errors
    with pytest.raises(ConfigError, match="result cache"):
        run_matrix(requests, jobs=1, cache=cache, checkpoint=True)


def test_identical_cells_deduplicated():
    requests = [RunRequest("SPM_G", awg(), SCEN)] * 3
    matrix = run_matrix(requests, jobs=1, cache=None)
    assert matrix.deduped == 2
    assert len(matrix) == 3
    assert matrix[0].cycles == matrix[1].cycles == matrix[2].cycles
    # deduplicated copies own their stats dict
    matrix[1].stats["probe"] = 1.0
    assert "probe" not in matrix[2].stats


def test_per_cell_error_capture_does_not_abort_sweep():
    requests = [
        RunRequest("SPM_G", awg(), SCEN),
        RunRequest("NO_SUCH_BENCHMARK", awg(), SCEN),
        RunRequest("TB_LG", awg(), SCEN),
    ]
    matrix = run_matrix(requests, jobs=1, cache=None)
    assert matrix[0].ok
    assert matrix[2].ok
    assert matrix.errors == [matrix.cells[1]]
    with pytest.raises(CellError, match="NO_SUCH_BENCHMARK"):
        matrix[1]


def test_errors_capture_across_pool():
    requests = [
        RunRequest("NO_SUCH_BENCHMARK", awg(), SCEN),
        RunRequest("SPM_G", awg(), SCEN),
    ]
    matrix = run_matrix(requests, jobs=2, cache=None)
    assert len(matrix.errors) == 1
    assert matrix[1].ok


def test_get_rejects_ambiguous_pairs():
    requests = [
        RunRequest("SPM_G", awg(), SCEN,
                   config_overrides={"syncmon_sets": 256}),
        RunRequest("SPM_G", awg(), SCEN,
                   config_overrides={"syncmon_sets": 1}),
    ]
    matrix = run_matrix(requests, jobs=1, cache=None)
    with pytest.raises(KeyError, match="ambiguous"):
        matrix.get("SPM_G", "AWG")
    with pytest.raises(KeyError):
        matrix.get("SPM_G", "Baseline")
    assert matrix[0].cycles != 0


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1
    assert resolve_jobs(None) >= 1
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(None) == 7
    monkeypatch.setenv("REPRO_JOBS", "garbage")
    with pytest.raises(ConfigError, match="REPRO_JOBS"):
        resolve_jobs(None)


def test_derived_stats_exported_for_figures():
    """fig13/table2/ablations read these instead of holding the GPU."""
    res = run_matrix([RunRequest("TB_LG", monnr_all(), SCEN)],
                     jobs=1, cache=None)[0]
    for key in ("cp.ds.waiting_conditions", "cp.ds.monitored_addresses",
                "cp.ds.waiting_wgs", "cp.ds.monitor_table",
                "cp.arena.peak_bytes", "char.sync_vars",
                "char.waiters_per_cond"):
        assert key in res.stats
    assert res.stats["char.sync_vars"] >= 1
