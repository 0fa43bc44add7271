"""Unit tests for policy specifications."""

import pytest

from repro.core.policies import (
    NotifyMode, ResumeMode, WaitMechanism, all_policy_names, awg, baseline,
    minresume, monnr_all, monnr_one, monr_all, monrs_all, named_policy,
    sleep, timeout,
)
from repro.errors import ConfigError


def test_baseline_provides_no_ifp():
    p = baseline()
    assert not p.provides_ifp
    assert p.mechanism is WaitMechanism.BUSY
    assert not p.uses_monitor


def test_sleep_needs_backoff():
    p = sleep(8_000)
    assert p.backoff_max == 8_000
    assert p.name == "Sleep-8k"
    assert not p.provides_ifp


def test_timeout_interval_in_name():
    assert timeout(50_000).name == "Timeout-50k"
    assert timeout(50_000).timeout_interval == 50_000
    assert timeout(50_000).provides_ifp


def test_monrs_is_sporadic_and_racy():
    p = monrs_all()
    assert p.notify is NotifyMode.SPORADIC
    assert p.has_race_window
    assert p.mechanism is WaitMechanism.WAIT_INSTR


def test_monr_checks_conditions_but_racy():
    p = monr_all()
    assert p.notify is NotifyMode.CONDITION
    assert p.has_race_window


def test_monnr_uses_waiting_atomics_no_race():
    for p in (monnr_all(), monnr_one(), awg(), minresume()):
        assert p.mechanism is WaitMechanism.WAITING_ATOMIC
        assert not p.has_race_window


def test_resume_modes():
    assert monnr_all().resume is ResumeMode.ALL
    assert monnr_one().resume is ResumeMode.ONE
    assert awg().resume is ResumeMode.PREDICT
    assert minresume().resume is ResumeMode.ORACLE


def test_awg_predicts_stall_and_has_straggler():
    p = awg()
    assert p.predict_stall
    assert p.timeout_interval is not None
    assert p.backstop_timeout is not None


def test_named_policy_lookup():
    assert named_policy("AWG").name == "AWG"
    assert named_policy("monnr-one").resume is ResumeMode.ONE
    assert named_policy("timeout", interval=10_000).timeout_interval == 10_000


def test_named_policy_unknown():
    with pytest.raises(ConfigError):
        named_policy("nope")


def test_all_policy_names_cover_nine():
    assert len(all_policy_names()) == 9


def test_with_overrides_is_functional():
    p = awg()
    q = p.with_overrides(backstop_timeout=5_000)
    assert q.backstop_timeout == 5_000
    assert p.backstop_timeout != 5_000


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        sleep(0)
    with pytest.raises(ConfigError):
        timeout(0)


@pytest.mark.parametrize("mechanism,ifp", [
    (WaitMechanism.BUSY, False),
    (WaitMechanism.SLEEP_BACKOFF, False),
    (WaitMechanism.WAIT_INSTR, True),
    (WaitMechanism.WAITING_ATOMIC, True),
])
def test_provides_ifp_follows_the_wait_mechanism(mechanism, ifp):
    factories = [baseline(), sleep(), timeout(), monrs_all(), monr_all(),
                 monnr_all(), monnr_one(), awg(), minresume()]
    same = [p for p in factories if p.mechanism is mechanism]
    assert same and all(p.provides_ifp is ifp for p in same)
    # a derived policy recomputes it, and it never enters the spec
    assert same[0].with_overrides(name="x").provides_ifp is ifp
    assert "provides_ifp" not in same[0].spec()
