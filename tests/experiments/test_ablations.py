"""The ablation studies' findings on their ``--quick`` tables (each
``check_*`` also runs there, in ``test_figures.py``)."""


def test_syncmon_capacity_spills_but_progresses(quick_table):
    rows = list(quick_table("ablation_syncmon").data.values())
    assert rows[0]["spills"] == 0
    assert rows[-1]["spills"] > 0
    assert rows[-1]["normalized"] >= 1.0


def test_monitor_log_capacity_busy_retries(quick_table):
    rows = list(quick_table("ablation_log").data.values())
    assert rows[0]["log-full retries"] == 0
    assert rows[-1]["log-full retries"] > 0


def test_resume_prediction_tracks_best_fixed(quick_table):
    result = quick_table("ablation_resume")
    for name, row in result.data.items():
        assert row["AWG vs best fixed"] <= 1.2, name
    assert result.data["SPM_G"]["MonNR-One"] < result.data["SPM_G"]["MonNR-All"]
    assert result.data["TB_LG"]["MonNR-All"] < result.data["TB_LG"]["MonNR-One"]


def test_stall_prediction_saves_switches(quick_table):
    # no quick scale: --quick runs the committed standing oversubscription
    result = quick_table("ablation_stall")
    assert any(row["stall saves switches"] > 0
               for row in result.data.values())
