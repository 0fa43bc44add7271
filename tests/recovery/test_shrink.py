"""Delta-debugging shrinker: minimality, monotonicity, determinism.

Shrinking a chaos-plan deadlock bundle must yield a strictly smaller
scenario that still reproduces the same diagnosis kind, and two
invocations must produce identical output.
"""

from dataclasses import replace

import pytest

from repro.core.policies import baseline, named_policy
from repro.errors import ReproError
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import QUICK_SCALE
from repro.faults.plan import named_plan
from repro.recovery.bundle import make_bundle, replay_bundle
from repro.recovery.shrink import shrink_bundle


def _chaos_deadlock_bundle():
    scen = replace(QUICK_SCALE, fault_plan=named_plan("chaos", seed=3))
    req = RunRequest("SPM_G", baseline(), scen, validate=False)
    result = req.execute()
    assert result.deadlocked, "chaos+baseline must deadlock for this test"
    return make_bundle(req, result=result)


def _assert_strictly_smaller_and_reproducing(shrunk):
    assert shrunk.final_size < shrunk.initial_size
    assert shrunk.shrunk
    report = replay_bundle(shrunk.minimal)
    assert report["reproduced"]
    # the failure identity is preserved, not just "some failure"
    assert shrunk.minimal["expected"] == shrunk.original["expected"]


def test_shrinks_chaos_deadlock_bundle_preserving_kind():
    bundle = _chaos_deadlock_bundle()
    shrunk = shrink_bundle(bundle)
    _assert_strictly_smaller_and_reproducing(shrunk)
    minimal = RunRequest.from_spec(shrunk.minimal["request"])
    original = RunRequest.from_spec(bundle["request"])
    # the chaos plan itself got thinner, not only the scenario
    minimal_plan = minimal.scenario.fault_plan
    original_plan = original.scenario.fault_plan
    if minimal_plan is not None:
        assert minimal_plan.weight() < original_plan.weight()
    # replaying the minimal bundle yields the same diagnosis kind
    report = replay_bundle(shrunk.minimal)
    assert report["observed"]["signature"] == \
        bundle["expected"]["signature"]


def test_shrink_is_deterministic_across_invocations():
    bundle = _chaos_deadlock_bundle()
    first = shrink_bundle(bundle)
    second = shrink_bundle(bundle)
    assert first.minimal["request"] == second.minimal["request"]
    assert first.log == second.log
    assert first.trials == second.trials


def test_shrink_rejects_non_reproducing_bundle():
    healthy = make_bundle(
        RunRequest("SPM_G", named_policy("awg"), QUICK_SCALE),
        expected={"mode": "diagnosis", "signature": {"kind": "deadlock"}})
    with pytest.raises(ReproError, match="does not reproduce"):
        shrink_bundle(healthy)


# ---------------------------------------------------------------------------
# synthetic-predicate unit tests (no simulation): search properties
# ---------------------------------------------------------------------------

def _synthetic_replay(predicate):
    """A replay stand-in driven by the candidate's request spec."""
    def replay(bundle):
        request = RunRequest.from_spec(bundle["request"])
        return {"reproduced": predicate(request)}
    return replay


def test_every_accepted_step_strictly_reduces_size():
    bundle = _chaos_deadlock_bundle()
    sizes = []

    def predicate(request):
        sizes.append(request.size())
        return True  # everything reproduces: shrink to the floor

    shrunk = shrink_bundle(bundle, replay=_synthetic_replay(predicate))
    accepted = [e for e in shrunk.log if e["accepted"]]
    assert accepted, "an always-true predicate must accept steps"
    recorded = [e["size"] for e in accepted]
    assert recorded == sorted(recorded, reverse=True)
    assert len(set(recorded)) == len(recorded)  # strictly decreasing
    # at the floor nothing can shrink further: every knob is minimal
    minimal = RunRequest.from_spec(shrunk.minimal["request"]).scenario
    assert minimal.wgs_per_group == 1
    assert minimal.iterations == 1 and minimal.episodes == 1
    # every fault family dropped (the empty plan shell has weight 0)
    assert minimal.fault_plan is None or minimal.fault_plan.is_noop


def test_shrink_respects_the_trial_budget():
    bundle = _chaos_deadlock_bundle()
    calls = []

    def predicate(request):
        calls.append(1)
        return True

    shrunk = shrink_bundle(bundle, max_trials=5,
                           replay=_synthetic_replay(predicate))
    assert shrunk.trials <= 5
    assert len(calls) <= 5


def test_shrink_log_records_rejections():
    bundle = _chaos_deadlock_bundle()
    original = RunRequest.from_spec(bundle["request"])

    shrunk = shrink_bundle(
        bundle, replay=_synthetic_replay(
            lambda req: req.scenario == original.scenario
            and req.scenario.fault_plan == original.scenario.fault_plan))
    # nothing but the original reproduces: no step accepted, all logged
    assert shrunk.minimal["request"] == bundle["request"]
    assert shrunk.log and all(not e["accepted"] for e in shrunk.log)
    assert shrunk.final_size == shrunk.initial_size
    assert not shrunk.shrunk
    for entry in shrunk.log:
        assert set(entry) == {"step", "dimension", "from", "to",
                              "accepted", "size"}


def test_render_mentions_sizes_and_steps():
    bundle = _chaos_deadlock_bundle()
    shrunk = shrink_bundle(bundle)
    rendered = shrunk.render()
    assert f"{shrunk.initial_size} -> {shrunk.final_size}" in rendered
    assert "replays" in rendered
