"""``run_matrix`` keeps completed cells on every exit path.

Each cell is put into the result cache the moment it settles, not in an
epilogue, so an unexpected exception escaping ``run_matrix`` after the
cells ran loses nothing: the rerun serves every cell from the cache
instead of re-simulating it.
"""

import pytest

from repro.core.policies import awg
from repro.experiments import matrix
from repro.experiments.cache import ResultCache
from repro.experiments.matrix import RunRequest, run_matrix
from repro.experiments.runner import QUICK_SCALE

SCEN = QUICK_SCALE.scaled(total_wgs=8, wgs_per_group=4, iterations=1,
                          episodes=2)


def _requests():
    return [RunRequest("SPM_G", awg(), SCEN),
            RunRequest("TB_LG", awg(), SCEN)]


def test_cells_settle_into_the_cache_before_run_matrix_returns(
        tmp_path, monkeypatch):
    """Kill-and-resume, exception variant: a crash AFTER the cells ran
    but before ``run_matrix`` returns must still leave every completed
    cell in the cache, and the rerun must hit them all."""
    cache = ResultCache(tmp_path)

    def boom(*_args, **_kwargs):
        raise RuntimeError("simulated crash in the sweep epilogue")

    monkeypatch.setattr(matrix, "MatrixResult", boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_matrix(_requests(), jobs=1, cache=cache)
    assert cache.entry_count() == 2

    monkeypatch.undo()
    resumed = run_matrix(_requests(), jobs=1, cache=ResultCache(tmp_path))
    assert (resumed.cache_hits, resumed.cache_misses) == (2, 0)
    fresh = run_matrix(_requests(), jobs=1, cache=None)
    for a, b in zip(resumed, fresh):
        assert a.cycles == b.cycles and a.stats == b.stats
