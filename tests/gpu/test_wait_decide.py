"""The wait episode's choices (Figure 6) without a simulation.

``plan``, ``decide`` and ``switched_out`` in ``gpu/workgroup.py`` hold
every per-policy choice of a wait episode; ``WorkGroup.wait_on_condition``
only carries them out. These tests pin the decision table, its tie
rules, AWG's two samples of "oversubscribed?" and the retry rule after
a switch, the way Sorensen et al. judge a progress model per schedule.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.specs import table_policies
from repro.core.policies import awg, monnr_one, monr_all, timeout
from repro.gpu.workgroup import (
    EVICTED, NOTIFIED, RESUME, RETRY, STALL, SWITCH, TIMER, decide, plan,
    switched_out,
)

START = 1_000
PREDICTED = 6_000  # AWG's predicted stall in the table below

#: (policy, oversubscribed at wait start) -> (the first timer's offset
#: from the start, the retry timer's source, the action when that first
#: timer fires, with the second sample equal to the first)
TABLE = {
    ("Timeout-20k", False): (20_000, "interval", RETRY),
    ("Timeout-20k", True): (0, "interval", SWITCH),
    ("MonRS-All", False): (100_000, "backstop", RETRY),
    ("MonRS-All", True): (0, "backstop", SWITCH),
    ("MonR-All", False): (100_000, "backstop", RETRY),
    ("MonR-All", True): (0, "backstop", SWITCH),
    ("MonNR-All", False): (100_000, "backstop", RETRY),
    ("MonNR-All", True): (0, "backstop", SWITCH),
    ("MonNR-One", False): (20_000, "straggler", RETRY),
    ("MonNR-One", True): (0, "straggler", SWITCH),
    # AWG stalls the predicted period either way, then samples again
    ("AWG", False): (PREDICTED, "straggler", STALL),
    ("AWG", True): (PREDICTED, "straggler", SWITCH),
    ("MinResume", False): (150_000, "backstop", RETRY),
    ("MinResume", True): (0, "backstop", SWITCH),
}

WAITING_POLICIES = [p for p in table_policies() if p.provides_ifp]


def _plan(policy, oversubscribed, predicted=PREDICTED):
    return plan(policy, START, oversubscribed,
                predicted if policy.predict_stall else None)


def _first_timer(episode):
    return (episode.retry_at if episode.switch_at is None
            else episode.switch_at)


def _sampler(value):
    """A second sample of "oversubscribed?" that counts its calls."""
    calls = []

    def sample():
        calls.append(value)
        return value
    sample.calls = calls
    return sample


def test_the_table_covers_every_waiting_policy():
    assert {name for name, _ in TABLE} == {p.name for p in WAITING_POLICIES}
    # the one policy left busy-waits: it never starts a wait episode
    assert [p.name for p in table_policies() if not p.provides_ifp] == [
        "Baseline"]


@pytest.mark.parametrize("event", [NOTIFIED, EVICTED, TIMER],
                         ids=["notified", "evicted", "timer"])
@pytest.mark.parametrize("oversubscribed", [False, True],
                         ids=["idle", "oversubscribed"])
@pytest.mark.parametrize("policy", WAITING_POLICIES,
                         ids=[p.name for p in WAITING_POLICIES])
def test_decision_table(policy, oversubscribed, event):
    offset, source, on_timer = TABLE[policy.name, oversubscribed]
    episode = _plan(policy, oversubscribed)
    assert episode.started == START
    assert episode.oversubscribed is oversubscribed
    assert _first_timer(episode) == START + offset
    assert episode.retry_source == source
    expected = {NOTIFIED: RESUME, EVICTED: SWITCH, TIMER: on_timer}[event]
    assert decide(policy, episode, event, True,
                  _sampler(oversubscribed)) == expected


@pytest.mark.parametrize("policy", WAITING_POLICIES,
                         ids=[p.name for p in WAITING_POLICIES])
def test_once_out_an_eviction_is_ignored_and_the_timer_retries(policy):
    episode = _plan(policy, True)
    assert decide(policy, episode, EVICTED, True, _sampler(True)) == SWITCH
    assert episode.switch_at is None  # spent by the switch-out
    switched_out(policy, episode, START + 500)
    assert decide(policy, episode, EVICTED, False, _sampler(True)) == STALL
    assert decide(policy, episode, TIMER, False, _sampler(True)) == RETRY


def test_retry_beats_switch_on_equal_deadlines():
    # AWG predicts a stall as long as its straggler timer: the retry
    # ends the wait, so no switch deadline is ever armed
    episode = plan(awg(), START, True, 20_000)
    assert episode.switch_at is None
    assert (episode.retry_at, episode.retry_source) == (
        START + 20_000, "straggler")
    # one cycle shorter and the switch comes first
    assert plan(awg(), START, True, 19_999).switch_at == START + 19_999


def test_backstop_beats_straggler_on_equal_timers():
    tie = monnr_one(straggler_timeout=50_000, backstop=50_000)
    episode = plan(tie, START, False, None)
    assert (episode.retry_at, episode.retry_source) == (
        START + 50_000, "backstop")
    shorter = monnr_one(straggler_timeout=49_999, backstop=50_000)
    assert plan(shorter, START, False, None).retry_source == "straggler"


def test_awg_samples_oversubscribed_again_when_its_stall_expires():
    # idle at the start, oversubscribed when the stall expires: switch
    episode = plan(awg(), START, False, PREDICTED)
    now = _sampler(True)
    assert decide(awg(), episode, TIMER, True, now) == SWITCH
    assert now.calls == [True]
    # oversubscribed at the start, idle when the stall expires: stall on
    # for the notify, and the next timer is the straggler retry
    episode = plan(awg(), START, True, PREDICTED)
    assert decide(awg(), episode, TIMER, True, _sampler(False)) == STALL
    assert episode.switch_at is None
    assert _first_timer(episode) == START + 20_000
    assert decide(awg(), episode, TIMER, True, _sampler(False)) == RETRY


@pytest.mark.parametrize("policy", [p for p in WAITING_POLICIES
                                    if not p.predict_stall],
                         ids=lambda p: p.name)
def test_only_awg_takes_a_second_sample(policy):
    sample = _sampler(False)
    for event in (NOTIFIED, EVICTED, TIMER):
        decide(policy, _plan(policy, True), event, True, sample)
    assert sample.calls == []


def test_a_repeat_wait_skips_the_prediction():
    # a wait on a condition whose last episode timed out gets no
    # prediction: AWG considers switching at once
    episode = plan(awg(), START, False, None)
    assert episode.switch_at == START
    assert decide(awg(), episode, TIMER, True, _sampler(True)) == SWITCH


def test_after_a_switch_timeout_keeps_its_interval():
    episode = plan(timeout(20_000), START, True, None)
    switched_out(timeout(20_000), episode, START + 3_000)
    assert (episode.retry_at, episode.retry_source) == (
        START + 20_000, "interval")


@pytest.mark.parametrize("policy", [monnr_one(), awg(), monr_all()],
                         ids=lambda p: p.name)
def test_after_a_switch_monitor_policies_fall_back_to_the_backstop(policy):
    episode = _plan(policy, True)
    switched_out(policy, episode, START + 3_000)
    assert (episode.retry_at, episode.retry_source) == (
        START + 3_000 + 100_000, "backstop")


def test_after_a_switch_without_a_backstop_only_a_notify_resumes():
    policy = replace(monr_all(), backstop_timeout=None)
    episode = plan(policy, START, True, None)
    assert episode.retry_at is None
    assert decide(policy, episode, TIMER, True, _sampler(True)) == SWITCH
    switched_out(policy, episode, START + 3_000)
    assert episode.retry_at is None
    assert _first_timer(episode) is None


# -- MonNR-One against AWG with a zero predicted stall ---------------------

SWITCH_OUT_CYCLES = 700


def replay(policy, oversubscribed, predicted, external):
    """Carry one episode out the way ``wait_on_condition`` does, on a
    model clock: ``external`` is a sorted list of ``(cycle, event)``
    notifies and evictions, which win ties with the timer; a switch-out
    takes SWITCH_OUT_CYCLES. Both samples of "oversubscribed?" read
    ``oversubscribed``. Returns the ``(cycle, action)`` list without the
    stalls, which change nothing the WG does."""
    episode = plan(policy, 0, oversubscribed, predicted)
    now, resident, pending, log = 0, True, list(external), []
    while True:
        when = _first_timer(episode)
        if pending and (when is None or pending[0][0] <= max(when, now)):
            cycle, event = pending.pop(0)
            now = max(now, cycle)
        elif when is not None:
            now, event = max(when, now), TIMER
        else:
            return log + [(None, "waits-forever")]
        action = decide(policy, episode, event, resident,
                        lambda: oversubscribed)
        if action != STALL:
            log.append((now, action))
        if action == SWITCH:
            now += SWITCH_OUT_CYCLES
            resident = False
            switched_out(policy, episode, now)
        elif action != STALL:
            return log


external_events = st.lists(
    st.tuples(st.integers(0, 130_000), st.sampled_from([NOTIFIED, EVICTED])),
    max_size=4,
).map(sorted)


@given(st.booleans(), external_events)
@settings(max_examples=200)
def test_monnr_one_and_awg_without_a_stall_agree_when_the_samples_do(
        oversubscribed, external):
    assert (replay(monnr_one(), oversubscribed, None, external)
            == replay(awg(), oversubscribed, 0, external))

