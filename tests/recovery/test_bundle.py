"""Repro-bundle schema, round trips, and replay semantics."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.policies import awg, baseline
from repro.errors import ConfigError
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import QUICK_SCALE
from repro.faults.plan import named_plan
from repro.recovery.bundle import (
    BUNDLE_KEYS, BUNDLE_VERSION, bundle_name, derive_expected, load_bundle,
    make_bundle, replay_bundle, validate_bundle, write_bundle,
)


def _deadlock_request():
    scen = replace(QUICK_SCALE, fault_plan=named_plan("blackout", seed=3))
    return RunRequest("SPM_G", baseline(), scen, validate=False)


def _deadlocked(kind="deadlock"):
    """A stand-in for a deadlocked RunResult (what bundles read of it)."""
    return SimpleNamespace(
        deadlocked=True, reason="watchdog",
        diagnosis={"kind": kind, "cycle": 123, "stalls": []})


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def test_bundle_schema_is_stable():
    """The bundle layout is a published interface (EXPERIMENTS.md):
    adding/removing top-level keys or changing the expected-mode
    vocabulary requires a BUNDLE_VERSION bump and doc updates."""
    bundle = make_bundle(_deadlock_request(), result=_deadlocked())
    assert sorted(bundle) == sorted(BUNDLE_KEYS)
    assert sorted(BUNDLE_KEYS) == [
        "expected", "failure", "kind", "provenance", "request", "version",
    ]
    assert bundle["version"] == BUNDLE_VERSION == 2
    assert bundle["kind"] == "awg-repro-bundle"
    assert set(bundle["provenance"]) == {"fingerprint", "python",
                                         "created_at"}
    request = bundle["request"]
    assert sorted(request) == [
        "benchmark", "config_overrides", "policy", "scenario", "validate",
    ]
    # the whole document is JSON-serializable as-is
    json.dumps(bundle)


def test_bundle_request_spec_round_trips():
    req = _deadlock_request()
    bundle = make_bundle(req, result=_deadlocked())
    rebuilt = RunRequest.from_spec(bundle["request"])
    assert rebuilt.spec() == req.spec()
    assert rebuilt.policy == req.policy
    assert rebuilt.scenario == req.scenario


def test_derive_expected_modes():
    assert derive_expected(result=_deadlocked()) == {
        "mode": "diagnosis", "signature": {"kind": "deadlock"}}
    assert derive_expected(result=_deadlocked("livelock"))["signature"] == \
        {"kind": "livelock"}
    assert derive_expected(
        failure={"type": "ValueError", "message": "boom"}) == \
        {"mode": "exception", "type": "ValueError"}
    with pytest.raises(ConfigError, match="expected"):
        derive_expected()


def test_validate_rejects_foreign_and_future_documents():
    bundle = make_bundle(_deadlock_request(), result=_deadlocked())
    validate_bundle(bundle)

    with pytest.raises(ConfigError, match="not a repro bundle"):
        validate_bundle({"kind": "something-else"})
    with pytest.raises(ConfigError, match="version"):
        validate_bundle({**bundle, "version": BUNDLE_VERSION + 1})
    # a version-1 bundle (its request still carries param_overrides) is
    # refused by version before its request is rebuilt
    old = {**bundle, "version": 1,
           "request": {**bundle["request"], "param_overrides": {}}}
    with pytest.raises(ConfigError, match="version 1 is not supported"):
        validate_bundle(old)
    with pytest.raises(ConfigError, match="missing"):
        validate_bundle({k: v for k, v in bundle.items()
                         if k != "provenance"})
    with pytest.raises(ConfigError, match="mode"):
        validate_bundle({**bundle, "expected": {"mode": "sideways"}})
    with pytest.raises(ConfigError, match="JSON object"):
        validate_bundle([1, 2, 3])


def test_write_load_round_trip(tmp_path):
    bundle = make_bundle(_deadlock_request(), result=_deadlocked())
    path = write_bundle(bundle, tmp_path)
    assert path.name == bundle_name(bundle)
    assert path.name.startswith("SPM_G-Baseline-quick-diagnosis-")
    assert load_bundle(path) == bundle
    # deterministic name: rewriting the same bundle overwrites in place
    assert write_bundle(bundle, tmp_path) == path
    assert len(list(tmp_path.glob("*.json"))) == 1
    with pytest.raises(ConfigError, match="no bundle"):
        load_bundle(tmp_path / "missing.json")


def _litmus_bundle():
    from repro.litmus.corpus import get_litmus
    from repro.litmus.shrinklink import LitmusRequest

    return make_bundle(
        LitmusRequest(program=get_litmus("LIT_HANDOFF_LOSS"),
                      policy=baseline(), seed=1),
        expected={"mode": "model-violation", "model": "OBE"})


@pytest.mark.parametrize("make", [
    lambda: make_bundle(_deadlock_request(), result=_deadlocked()),
    _litmus_bundle,
], ids=["cell", "litmus"])
def test_write_goes_through_durability_gateway(make, tmp_path, disk):
    """Both kinds are written by ``write_atomic_text`` (temp file,
    fsync, rename onto the final name), so they get its I/O retries."""
    bundle = make()
    path = write_bundle(bundle, tmp_path)
    assert [op for op, _path in disk.log] == [
        "creat", "write", "fsync", "rename"]
    assert disk.log[-1][1].endswith(f" -> {path.name}")
    assert load_bundle(path)["kind"] == bundle["kind"]


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_reproduces_recorded_deadlock():
    req = _deadlock_request()
    result = req.execute()
    assert result.deadlocked
    bundle = make_bundle(req, result=result)
    report = replay_bundle(bundle)
    assert report["reproduced"]
    assert report["observed"]["mode"] == "diagnosis"
    assert report["observed"]["signature"] == \
        bundle["expected"]["signature"]
    # the replayed result payload is attached for post-mortems
    assert report["observed"]["result"]["deadlocked"] is True


def test_replay_detects_non_reproduction():
    """A bundle expecting a deadlock from a healthy cell must come back
    reproduced=False, not crash."""
    healthy = RunRequest("SPM_G", awg(), QUICK_SCALE)
    bundle = make_bundle(healthy, expected={
        "mode": "diagnosis", "signature": {"kind": "deadlock"}})
    report = replay_bundle(bundle)
    assert not report["reproduced"]
    assert report["observed"]["mode"] == "ok"


def test_replay_exception_bundle():
    """An exception-mode bundle reproduces iff the same exception type
    is raised again."""
    bad = RunRequest("SPM_G", awg(),
                     replace(QUICK_SCALE, total_wgs=0), validate=False)
    bundle = make_bundle(bad, failure={
        "type": "ConfigError", "message": "total_wgs", "traceback": "...",
    })
    report = replay_bundle(bundle)
    assert report["expected"] == {"mode": "exception", "type": "ConfigError"}
    assert report["reproduced"] == (report["observed"].get("type")
                                    == "ConfigError")
