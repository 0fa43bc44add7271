"""Litmus bundles: schema, replay, and program-level delta debugging
through the shared repro-bundle envelope and shrink loop."""

import json

import pytest

from repro.core.policies import awg, baseline
from repro.errors import ConfigError, ReproError
from repro.litmus.corpus import get_litmus
from repro.litmus.generate import handoff
from repro.litmus.shrinklink import LitmusRequest, program_size
from repro.recovery.bundle import (
    BUNDLE_VERSION,
    LITMUS_BUNDLE_KEYS,
    LITMUS_BUNDLE_KIND,
    load_bundle,
    make_bundle,
    replay_bundle,
    validate_bundle,
    write_bundle,
)
from repro.recovery.shrink import shrink_bundle


def violation_bundle():
    request = LitmusRequest(
        program=get_litmus("LIT_HANDOFF_LOSS"), policy=baseline(), seed=1)
    return make_bundle(
        request, expected={"mode": "model-violation", "model": "OBE"})


def test_bundle_round_trip(tmp_path):
    bundle = violation_bundle()
    path = write_bundle(bundle, tmp_path)
    loaded = load_bundle(path)
    assert loaded["kind"] == LITMUS_BUNDLE_KIND
    assert LitmusRequest.from_spec(loaded["request"]) == \
        LitmusRequest.from_spec(bundle["request"])


def test_validate_rejects_foreign_kinds():
    with pytest.raises(ConfigError, match="not a repro bundle"):
        validate_bundle({**violation_bundle(), "kind": "something-else"})
    with pytest.raises(ConfigError, match="missing"):
        validate_bundle({"kind": LITMUS_BUNDLE_KIND,
                         "version": BUNDLE_VERSION})
    with pytest.raises(ConfigError):
        validate_bundle("not a dict")
    bad = violation_bundle()
    bad["expected"] = {"mode": "nonsense"}
    with pytest.raises(ConfigError):
        validate_bundle(bad)
    # a litmus expected clause is not a cell one, and vice versa
    with pytest.raises(ConfigError):
        validate_bundle({**violation_bundle(),
                         "expected": {"mode": "diagnosis"}})


def test_replay_reproduces_model_violation():
    report = replay_bundle(violation_bundle())
    assert report["reproduced"]
    assert report["observed"]["verdict"] == "violated"


def test_replay_detects_fixed_violation():
    # The same program under AWG completes: the recorded OBE violation
    # must NOT reproduce.
    request = LitmusRequest(
        program=get_litmus("LIT_HANDOFF_LOSS"), policy=awg(), seed=1)
    bundle = make_bundle(
        request, expected={"mode": "model-violation", "model": "OBE"})
    report = replay_bundle(bundle)
    assert not report["reproduced"]


def test_shrink_preserves_violation_and_reduces_size():
    bundle = violation_bundle()
    original = LitmusRequest.from_spec(bundle["request"]).program
    result = shrink_bundle(bundle, max_trials=60)
    minimal = LitmusRequest.from_spec(result.minimal["request"]).program
    assert result.shrunk
    assert program_size(minimal) < program_size(original)
    assert minimal.wgs < original.wgs
    assert replay_bundle(result.minimal)["reproduced"]
    # the log records every trial with its accept/reject decision
    assert result.log and all(
        {"step", "dimension", "accepted", "size"} <= set(e)
        for e in result.log)


def test_shrink_is_deterministic():
    a = shrink_bundle(violation_bundle(), max_trials=40)
    b = shrink_bundle(violation_bundle(), max_trials=40)
    assert a.minimal["request"] == b.minimal["request"]
    assert a.log == b.log


def test_shrink_refuses_non_reproducing_bundle():
    request = LitmusRequest(
        program=get_litmus("LIT_HANDOFF"), policy=awg(), seed=1)
    bundle = make_bundle(
        request, expected={"mode": "model-violation", "model": "OBE"})
    with pytest.raises(ReproError):
        shrink_bundle(bundle)


def test_bundle_json_stable(tmp_path):
    bundle = violation_bundle()
    path = write_bundle(bundle, tmp_path)
    document = json.loads(path.read_text())
    assert document["version"] == 2
    assert document["kind"] == "awg-repro-litmus-bundle"
    assert sorted(document) == sorted(LITMUS_BUNDLE_KEYS) == [
        "expected", "kind", "provenance", "request", "version"]
    assert document["request"]["program"]["alias"] == "LIT_HANDOFF_LOSS"
    assert "fingerprint" in document["provenance"]


def test_emit_violation_bundles_for_contract_breaks(tmp_path, monkeypatch):
    # Forge a report whose single run claims MUST_COMPLETE but hung,
    # and check a bundle lands on disk for it.
    from repro.litmus.models import judge_all
    from repro.litmus.oracle import run_litmus
    from repro.litmus.shrinklink import violation_bundles
    from repro.recovery.shrink import write_violation_bundles

    run = run_litmus(get_litmus("LIT_HANDOFF_LOSS"), baseline())
    assert not run.outcome.ok
    forged = run.__class__(**{**run.__dict__, "expected": "MUST_COMPLETE"})
    assert forged.contract_violation

    class FakeReport:
        def violating_runs(self):
            return [forged]

    paths = write_violation_bundles(violation_bundles(FakeReport(), seed=1),
                                    tmp_path)
    assert len(paths) == 1
    loaded = load_bundle(paths[0])
    assert loaded["expected"]["mode"] == "contract"
