"""The fault campaign: the IFP contract checked end to end."""

import json
from pathlib import Path

import pytest

from repro.core.policies import awg, baseline
from repro.experiments import faults_campaign
from repro.experiments.faults_campaign import (
    SMOKE_SCALE, CampaignResult, _expectation,
)
from repro.faults.plan import named_plan
from repro.recovery.bundle import load_bundle, replay_bundle


@pytest.fixture(scope="module")
def small_campaign():
    return faults_campaign.run(
        seed=1, smoke=True,
        plans=[named_plan("calm"), named_plan("blackout")],
        jobs=1, cache=None,
    )


def _cell(campaign, plan, bench, policy):
    """The result of one cell; the campaign orders its cells plan ->
    benchmark -> policy."""
    benches = faults_campaign.SMOKE_BENCHMARKS
    names = [p.name for p in faults_campaign.POLICIES]
    index = ((plan * len(benches) + benches.index(bench)) * len(names)
             + names.index(policy))
    return campaign.matrix[index]


def test_contract_holds(small_campaign):
    assert isinstance(small_campaign, CampaignResult)
    assert small_campaign.ok
    assert small_campaign.violations == []


def test_table_shows_cycles_and_failure_modes(small_campaign):
    text = small_campaign.render()
    assert "SPM_G × calm" in text
    assert "SPM_G × blackout" in text
    assert "DEADLOCK" in text          # Baseline under blackout
    assert "IFP contract held" in text


def test_matrix_cells_follow_the_expectation(small_campaign):
    calm, blackout = 0, 1
    assert _cell(small_campaign, calm, "SPM_G", "Baseline").ok
    assert _cell(small_campaign, calm, "SPM_G", "AWG").ok
    # Baseline loses a CU for good
    stuck = _cell(small_campaign, blackout, "SPM_G", "Baseline")
    assert stuck.deadlocked
    assert stuck.diagnosis is not None
    # AWG restores the evicted WGs
    assert _cell(small_campaign, blackout, "SPM_G", "AWG").ok


def test_campaign_is_deterministic():
    kwargs = dict(seed=1, smoke=True, plans=[named_plan("storm")],
                  jobs=1, cache=None)
    a = faults_campaign.run(**kwargs)
    b = faults_campaign.run(**kwargs)
    assert a.render() == b.render()


def test_violating_cells_emit_replayable_shrunk_bundles(tmp_path,
                                                        monkeypatch):
    """`faults --bundles DIR --shrink`: every replayable violation
    lands as a bundle plus its minimized twin and shrink log."""
    # total_wgs=0 makes every cell raise ConfigError — a deterministic
    # "cell failed" violation with a replayable exception bundle
    monkeypatch.setattr(faults_campaign, "SMOKE_SCALE",
                        SMOKE_SCALE.scaled(total_wgs=0))
    result = faults_campaign.run(
        seed=1, smoke=True, plans=[named_plan("calm", seed=1)],
        jobs=1, cache=None, bundle_dir=tmp_path, shrink=True)
    assert not result.ok
    assert result.bundles, "a violating cell must emit a bundle"
    assert f"repro-bundle file(s) to {tmp_path}" in result.render()

    bundle_path = Path(result.bundles[0])
    bundle = load_bundle(bundle_path)
    assert bundle["expected"]["mode"] == "exception"
    assert bundle["failure"]["type"] == "ConfigError"
    assert replay_bundle(bundle)["reproduced"]

    log_path = Path(str(bundle_path).replace(".json", ".shrinklog.json"))
    assert str(log_path) in result.bundles
    log = json.loads(log_path.read_text())
    assert log["source"] == str(bundle_path)
    assert log["final_size"] < log["initial_size"]
    # the log names the minimal bundle it describes, and so does the result
    assert log["minimal"] in result.bundles
    assert log["minimal"] != str(bundle_path)
    assert replay_bundle(load_bundle(log["minimal"]))["reproduced"]


def test_expectation_table():
    assert _expectation(awg(), named_plan("blackout")) == "complete"
    assert _expectation(baseline(), named_plan("blackout")) == "deadlock"
    assert _expectation(baseline(), named_plan("calm")) == "complete"
    assert _expectation(baseline(), named_plan("notify-loss")) == "complete"
