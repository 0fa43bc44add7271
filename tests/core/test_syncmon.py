"""Unit tests for the Synchronization Monitor."""

import pytest

from repro.core.conditions import WaitCondition
from repro.core.monitor_log import MonitorLog
from repro.core.policies import (
    awg, minresume, monnr_all, monnr_one, monrs_all, timeout,
)
from repro.core.syncmon import RegisterOutcome, SyncMon
from repro.gpu.config import GPUConfig
from repro.mem.atomics import AtomicOp, AtomicResult
from repro.mem.backing import BackingStore
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.engine import Engine
from repro.sim.rng import RngStream


def make_syncmon(policy=None, **config_overrides):
    env = Engine()
    cfg = GPUConfig(**config_overrides)
    store = BackingStore()
    hier = MemoryHierarchy(env, cfg, store)
    log = MonitorLog(store, cfg.monitor_log_entries)
    sm = SyncMon(env, cfg, hier, log, policy or monnr_all(),
                 RngStream(1, "sm"))
    resumed = []
    sm.resume_hook = lambda wgs, cause, stagger: resumed.append(
        (tuple(wgs), cause))
    sm._resumed_log = resumed
    sm._store = store
    return sm


def update(sm, addr, new, old=None, wg_id=None, op=AtomicOp.STORE):
    old = 0 if old is None else old
    res = AtomicResult(op=op, addr=addr, old=old, new=new, wrote=new != old)
    sm.on_atomic(res, wg_id)


ADDR = 0x1000


def test_register_sets_monitored_bit():
    sm = make_syncmon()
    out = sm.register(1, WaitCondition(ADDR, 5))
    assert out is RegisterOutcome.REGISTERED
    assert sm.hierarchy.l2.is_monitored(ADDR)
    assert sm.condition_count == 1
    assert sm.snapshot()["syncmon.peak_waiters"] == 1


def test_register_same_wg_twice_idempotent():
    sm = make_syncmon()
    cond = WaitCondition(ADDR, 5)
    sm.register(1, cond)
    sm.register(1, cond)
    assert sm.snapshot()["syncmon.peak_waiters"] == 1


def test_condition_met_resumes_all_waiters():
    sm = make_syncmon(monnr_all())
    cond = WaitCondition(ADDR, 5)
    sm.register(1, cond)
    sm.register(2, cond)
    update(sm, ADDR, 5)
    assert sm._resumed_log == [((1, 2), "condition-met")]
    assert sm.condition_count == 0
    assert not sm.hierarchy.l2.is_monitored(ADDR)


def test_wrong_value_does_not_resume():
    sm = make_syncmon()
    sm.register(1, WaitCondition(ADDR, 5))
    update(sm, ADDR, 4)
    assert sm._resumed_log == []
    assert sm.withdraw(1, WaitCondition(ADDR, 5))  # still waiting


def test_non_write_does_not_resume_condition_mode():
    sm = make_syncmon(monnr_all())
    sm.register(1, WaitCondition(ADDR, 5))
    res = AtomicResult(op=AtomicOp.LOAD, addr=ADDR, old=5, new=5, wrote=False)
    sm.on_atomic(res, None)
    assert sm._resumed_log == []


def test_unmonitored_address_ignored():
    sm = make_syncmon()
    update(sm, 0x9999 & ~63, 5)
    assert sm._resumed_log == []


def test_resume_one_keeps_condition():
    sm = make_syncmon(monnr_one())
    cond = WaitCondition(ADDR, 5)
    sm.register(1, cond)
    sm.register(2, cond)
    update(sm, ADDR, 5)
    assert sm._resumed_log == [((1,), "condition-met")]
    assert sm.hierarchy.l2.is_monitored(ADDR)
    # a second met update releases the next waiter (FIFO)
    update(sm, ADDR, 4)
    update(sm, ADDR, 5)
    assert sm._resumed_log[-1] == ((2,), "condition-met")


def test_multiple_conditions_per_address():
    sm = make_syncmon(monnr_all())
    sm.register(1, WaitCondition(ADDR, 5))
    sm.register(2, WaitCondition(ADDR, 7))
    update(sm, ADDR, 7)
    assert sm._resumed_log == [((2,), "condition-met")]
    assert sm.hierarchy.l2.is_monitored(ADDR)  # cond ==5 still armed


def test_sporadic_resumes_without_condition_check():
    sm = make_syncmon(monrs_all())
    sm.register(1, WaitCondition(ADDR, 5))
    sm.register(2, WaitCondition(ADDR, 5))
    update(sm, ADDR, 123)  # value does NOT match
    assert sm._resumed_log == [((1, 2), "sporadic")]


def test_sporadic_excludes_the_accessor():
    sm = make_syncmon(monrs_all())
    sm.register(1, WaitCondition(ADDR, 5))
    sm.register(2, WaitCondition(ADDR, 5))
    update(sm, ADDR, 9, wg_id=1)  # WG1's own retry cannot resume WG1
    assert sm._resumed_log == [((2,), "sporadic")]


def test_withdraw_removes_waiter_and_unmonitors():
    sm = make_syncmon()
    cond = WaitCondition(ADDR, 5)
    sm.register(1, cond)
    assert sm.withdraw(1, cond)
    assert not sm.withdraw(1, cond)  # no longer waiting
    assert not sm.hierarchy.l2.is_monitored(ADDR)
    assert not sm.withdraw(1, cond)


def test_condition_cache_set_overflow_spills():
    sm = make_syncmon(monnr_all(), syncmon_sets=1, syncmon_assoc=2)
    outs = [sm.register(i, WaitCondition(0x1000 + i * 64, 1))
            for i in range(3)]
    assert outs[:2] == [RegisterOutcome.REGISTERED] * 2
    assert outs[2] is RegisterOutcome.SPILLED
    assert sm.log.occupancy == 1
    assert sm.spills == 1


def test_waiting_list_overflow_spills():
    sm = make_syncmon(monnr_all(), waiting_wg_list_size=2)
    cond = WaitCondition(ADDR, 1)
    assert sm.register(0, cond) is RegisterOutcome.REGISTERED
    assert sm.register(1, cond) is RegisterOutcome.REGISTERED
    assert sm.register(2, cond) is RegisterOutcome.SPILLED


def test_log_full_returns_log_full():
    sm = make_syncmon(monnr_all(), syncmon_sets=1, syncmon_assoc=1,
                      monitor_log_entries=1)
    sm.register(0, WaitCondition(0x1000, 1))
    assert sm.register(1, WaitCondition(0x1040, 1)) is RegisterOutcome.SPILLED
    out = sm.register(2, WaitCondition(0x1080, 1))
    assert out is RegisterOutcome.LOG_FULL
    assert sm.log_full_events == 1


def test_oracle_resumes_one_for_exclusive():
    sm = make_syncmon(minresume())
    cond = WaitCondition(ADDR, 0, exclusive=True)
    sm.register(1, cond)
    sm.register(2, cond)
    update(sm, ADDR, 0, old=1)
    assert sm._resumed_log == [((1,), "condition-met")]


def test_oracle_resumes_all_for_broadcast():
    sm = make_syncmon(minresume())
    cond = WaitCondition(ADDR, 8, exclusive=False)
    sm.register(1, cond)
    sm.register(2, cond)
    update(sm, ADDR, 8)
    assert sm._resumed_log == [((1, 2), "condition-met")]


def test_awg_predicts_one_for_lock_toggle():
    sm = make_syncmon(awg())
    cond = WaitCondition(ADDR, 0)
    # lock word toggles 0/1 before and while monitored
    update(sm, ADDR, 1, old=0)
    sm.register(1, cond)
    sm.register(2, cond)
    update(sm, ADDR, 0, old=1)
    assert sm._resumed_log == [((1,), "condition-met")]


def test_awg_predicts_all_for_counter():
    sm = make_syncmon(awg())
    cond = WaitCondition(ADDR, 4)
    update(sm, ADDR, 1, old=0)
    sm.register(1, cond)
    sm.register(2, cond)
    update(sm, ADDR, 2, old=1)
    update(sm, ADDR, 3, old=2)
    update(sm, ADDR, 4, old=3)
    assert sm._resumed_log == [((1, 2), "condition-met")]


def test_timeout_policy_never_notifies():
    sm = make_syncmon(timeout(20_000))
    update(sm, ADDR, 5)
    assert sm._resumed_log == []
    assert sm.notifications == 0


def test_hardware_bits_match_paper_budget():
    sm = make_syncmon()
    bits = sm.hardware_bits()
    # paper: condition cache + WG list ~= 26112 bits + blooms 12288 bits
    assert bits["waiting_wg_list_bits"] == 512 * 9
    assert bits["bloom_filter_bits"] == 512 * 24 == 12288
    assert bits["l2_monitored_bits"] == 8192  # 1 KB over the L2


def test_characterization_counts():
    sm = make_syncmon(monnr_all())
    sm.register(1, WaitCondition(ADDR, 5))
    sm.register(2, WaitCondition(ADDR + 64, 1))
    update(sm, ADDR, 5)
    ch = sm.characterization()
    assert ch["sync_vars"] == 2
    assert ch["waiters_per_cond"] == 1.0
