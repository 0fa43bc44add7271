"""Shape tests on the ``--quick`` tables: each artifact's table as
``awg-repro NAME --quick`` builds it (the session's ``quick_table``
fixture), so the suite checks the same tables users and perfbench run.

Every module's ``check()`` holds on its quick table except fig13, fig14
and fig15 (EXPERIMENTS.md names the assertion each fails there); the
tests below assert the paper's direction on those three, and the
findings no ``check()`` asserts.
"""

import pytest

from repro.cli import ARTIFACTS
from repro.experiments import (
    QUICK_OVERSUBSCRIBED, fig13, fig14, fig15, run_matrix,
)

#: the artifacts whose own check() holds on their --quick table
QUICK_CHECKED = [
    "table1", "table2", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig11", "prior_work", "ablation_syncmon", "ablation_log",
    "ablation_resume", "ablation_stall",
]


@pytest.mark.parametrize("name", QUICK_CHECKED)
def test_check_holds_on_the_quick_table(name, quick_table):
    ARTIFACTS[name].check(quick_table(name))


def test_only_the_paper_scale_figures_skip_their_check():
    assert set(ARTIFACTS) - set(QUICK_CHECKED) == {"fig13", "fig14", "fig15"}


# -- Table 1 ------------------------------------------------------------------

def test_table1_rows(quick_table):
    r = quick_table("table1")
    assert r.data["Compute Units"]["value"] == "8"
    assert "2.0 GHz" in r.data["Clock"]["value"]


# -- Table 2 ------------------------------------------------------------------

@pytest.fixture
def t2(quick_table):
    return quick_table("table2")


def test_table2_spm_g_single_sync_var(t2):
    assert t2.data["SPM_G"]["# sync vars (meas)"] == 1


def test_table2_slm_decentralized_many_vars(t2):
    # decentralized ticket lock: ~one sync var per acquisition chain
    assert t2.data["SLM_G"]["# sync vars (meas)"] > 4


def test_table2_barrier_waiters(t2):
    # centralized tree barrier conditions collect multiple waiters
    assert t2.data["TB_LG"]["waiters/cond (meas)"] > 1.5
    # decentralized: exactly one waiter per condition
    assert t2.data["LFTB_LG"]["waiters/cond (meas)"] <= 1.1


# -- Figure 5 ------------------------------------------------------------------

def test_fig5_context_sizes_in_paper_band(quick_table):
    r = quick_table("fig5")
    sizes = [row["context KB"] for row in r.data.values()]
    assert 1.5 <= min(sizes) and max(sizes) <= 10.5
    assert r.data["TBEX_LG"]["context KB"] > r.data["SPM_G"]["context KB"]


# -- Figure 7 ------------------------------------------------------------------

@pytest.fixture
def f7(quick_table):
    return quick_table("fig7")


def test_fig7_backoff_helps_contended_spin(f7):
    assert f7.data["SPM_G"]["Sleep-16k"] < 1.0


def test_fig7_huge_backoff_counterproductive_somewhere(f7):
    worst = max(
        row["Sleep-256k"] / min(row["Sleep-1k"], row["Sleep-16k"])
        for row in f7.data.values()
    )
    assert worst > 1.0  # over-sleeping hurts at least one benchmark


def test_fig7_no_single_best_interval(f7):
    best = {
        name: min(("Sleep-1k", "Sleep-16k", "Sleep-256k"),
                  key=lambda c: row[c])
        for name, row in f7.data.items()
    }
    assert len(set(best.values())) > 1


# -- Figure 8 ------------------------------------------------------------------

@pytest.fixture
def f8(quick_table):
    # one primitive of each kind: centralized and ticket mutexes, a barrier
    table = quick_table("fig8")
    return [table.data[name] for name in ("SPM_G", "FAM_G", "TB_LG", "SLM_G")]


def test_fig8_some_timeouts_worse_than_baseline(f8):
    values = [row[c] for row in f8 for c in ("Timeout-10k", "Timeout-100k")]
    assert any(v > 1.0 for v in values)


def test_fig8_interval_preference_varies_by_primitive(f8):
    """The paper's point: no interval suits every primitive — the same
    interval beats busy-waiting on one benchmark and loses on another."""
    t10k = [row["Timeout-10k"] for row in f8]
    assert min(t10k) < 1.0 < max(t10k)


# -- Figure 9 ------------------------------------------------------------------

@pytest.fixture
def f9(quick_table):
    return quick_table("fig9")


def test_fig9_sporadic_worst_on_centralized(f9):
    assert f9.data["SPM_G"]["MonRS-All"] > f9.data["SPM_G"]["MonNR-All"]
    assert f9.data["FAM_G"]["MonRS-All"] > 2.0


def test_fig9_decentralized_unaffected(f9):
    for bench in ("SLM_G", "LFTB_LG"):
        for policy in ("MonRS-All", "MonR-All", "MonNR-All"):
            assert f9.data[bench][policy] < 2.0


def test_fig9_normalized_to_oracle(f9):
    assert all(row["MinResume"] == 1.0 for row in f9.data.values())


# -- Figure 11 ------------------------------------------------------------------

@pytest.fixture
def f11(quick_table):
    return quick_table("fig11")


def test_fig11_monnr_one_wins_contended_mutex(f11):
    row = f11.data["SPM_G"]
    one = row["MonNR-One running"] + row["MonNR-One waiting"]
    all_ = row["MonNR-All running"] + row["MonNR-All waiting"]
    assert one < all_


def test_fig11_monnr_all_wins_barrier(f11):
    row = f11.data["TB_LG"]
    one = row["MonNR-One running"] + row["MonNR-One waiting"]
    all_ = row["MonNR-All running"] + row["MonNR-All waiting"]
    assert all_ < one


def test_fig11_normalized_to_timeout(f11):
    for row in f11.data.values():
        assert row["Timeout-20k running"] + row["Timeout-20k waiting"] == \
            pytest.approx(1.0)


# -- Figure 13 ------------------------------------------------------------------

def test_fig13_sizes_positive_and_bounded():
    # At the quick scale's 10 us loss only 4 of 12 rows save a
    # context; trigger the loss early and run longer so it lands inside
    # even the fast runs.
    r = fig13.table(run_matrix(fig13.requests(QUICK_OVERSUBSCRIBED.scaled(
        iterations=4, episodes=8, resource_loss_at_us=4.0,
        deadlock_window=200_000))))
    switched = 0
    for name, row in r.data.items():
        assert row["Waiting WGs"] > 0, name
        assert row["Waiting Conditions"] >= 0
        assert row["Waiting Conditions"] < 64  # KB — sane bound
        if row["Saved Contexts"] > 0:
            switched += 1
    # the resource loss lands inside most runs, forcing context saves
    assert switched >= len(r.data) // 2


# -- Figure 14 (headline) --------------------------------------------------------

@pytest.fixture
def f14(quick_table):
    return quick_table("fig14")


def test_fig14_awg_beats_baseline_everywhere(f14):
    for name in ("SPM_G", "FAM_G", "TB_LG", "LFTB_LG"):
        assert f14.data[name]["AWG"] > 1.0


def test_fig14_awg_geomean_wins(f14):
    gm = f14.data[fig14.GEOMEAN_ROW]
    assert gm["AWG"] == max(
        v for k, v in gm.items() if v is not None
    )
    assert gm["AWG"] > 2.0  # check() asks > 3.0 at paper scale


def test_fig14_awg_matches_best_monnr(f14):
    # contended mutex: AWG ~ MonNR-One, much better than MonNR-All
    assert f14.data["SPM_G"]["AWG"] >= 0.9 * f14.data["SPM_G"]["MonNR-One"]
    assert f14.data["SPM_G"]["AWG"] > f14.data["SPM_G"]["MonNR-All"]
    # barrier: AWG ~ MonNR-All, much better than MonNR-One
    assert f14.data["TB_LG"]["AWG"] >= 0.9 * f14.data["TB_LG"]["MonNR-All"]
    assert f14.data["TB_LG"]["AWG"] > f14.data["TB_LG"]["MonNR-One"]


def test_fig14_sleep_only_for_modified_benchmarks(f14):
    assert f14.data["LFTB_LG"]["Sleep-16k"] is None
    assert f14.data["SPM_G"]["Sleep-16k"] is not None


# -- Figure 15 ------------------------------------------------------------------

@pytest.fixture
def f15(quick_table):
    return quick_table("fig15")


def test_fig15_baseline_deadlocks(f15):
    deadlocks = [name for name in ("FAM_G", "SLM_G")
                 if f15.data[name]["Baseline"] == fig15.DEADLOCK]
    assert deadlocks, "busy-waiting must deadlock on FIFO locks"


def test_fig15_ifp_policies_complete(f15):
    for name in ("FAM_G", "SLM_G", "TB_LG"):
        for policy in ("Timeout-20k", "MonNR-All", "MonNR-One", "AWG"):
            assert f15.data[name][policy] != fig15.DEADLOCK, (name, policy)


def test_fig15_awg_beats_timeout(f15):
    gm = f15.data[fig15.GEOMEAN_ROW]
    assert gm["AWG"] > 1.0
