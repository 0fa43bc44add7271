"""Model-based property tests for the SyncMon.

A random interleaving of registrations, withdrawals and memory updates is
run against both the SyncMon and a trivial reference model (a dict of
conditions to waiter sets). The SyncMon must agree with the reference on
who gets resumed and must never lose a waiter: everyone registered is
eventually resumed or still accounted for.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import WaitCondition
from repro.core.monitor_log import MonitorLog
from repro.core.policies import monnr_all
from repro.core.syncmon import RegisterOutcome, SyncMon
from repro.gpu.config import GPUConfig
from repro.mem.atomics import AtomicOp, AtomicResult
from repro.mem.backing import BackingStore
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.engine import Engine
from repro.sim.rng import RngStream

ADDRS = [0x1000, 0x1040, 0x1080]
VALUES = list(range(4))
WGS = list(range(8))

ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), st.sampled_from(WGS),
                  st.sampled_from(ADDRS), st.sampled_from(VALUES)),
        st.tuples(st.just("withdraw"), st.sampled_from(WGS),
                  st.sampled_from(ADDRS), st.sampled_from(VALUES)),
        st.tuples(st.just("update"), st.just(0),
                  st.sampled_from(ADDRS), st.sampled_from(VALUES)),
    ),
    max_size=60,
)


def build_syncmon():
    env = Engine()
    cfg = GPUConfig()
    store = BackingStore()
    hier = MemoryHierarchy(env, cfg, store)
    log = MonitorLog(store, cfg.monitor_log_entries)
    sm = SyncMon(env, cfg, hier, log, monnr_all(), RngStream(3, "prop"))
    resumed = []
    sm.resume_hook = lambda wgs, cause, stagger: resumed.extend(wgs)
    return sm, resumed


@given(ops)
@settings(max_examples=80)
def test_syncmon_agrees_with_reference_model(sequence):
    sm, resumed = build_syncmon()
    # reference: (addr, value) -> ordered waiter list; addr -> last value
    model = {}
    model_resumed = []
    mem = {a: 0 for a in ADDRS}

    for op, wg, addr, value in sequence:
        if op == "register":
            cond = WaitCondition(addr, value)
            out = sm.register(wg, cond)
            assert out is RegisterOutcome.REGISTERED  # huge capacity
            waiters = model.setdefault((addr, value), [])
            if wg not in waiters:
                waiters.append(wg)
        elif op == "withdraw":
            cond = WaitCondition(addr, value)
            did = sm.withdraw(wg, cond)
            waiters = model.get((addr, value), [])
            assert did == (wg in waiters)
            if wg in waiters:
                waiters.remove(wg)
        else:  # update
            old = mem[addr]
            mem[addr] = value
            res = AtomicResult(op=AtomicOp.STORE, addr=addr, old=old,
                               new=value, wrote=value != old)
            sm.on_atomic(res, None)
            if value != old:
                met = model.pop((addr, value), [])
                model_resumed.extend(met)

    assert resumed == model_resumed
    # conservation: every registered waiter is resumed or still waiting
    for (addr, value), waiters in model.items():
        for wg in waiters:
            assert sm.withdraw(wg, WaitCondition(addr, value))
    assert sm.condition_count == 0


@given(ops)
@settings(max_examples=40)
def test_monitored_bits_match_live_conditions(sequence):
    sm, _resumed = build_syncmon()
    mem = {a: 0 for a in ADDRS}
    for op, wg, addr, value in sequence:
        if op == "register":
            sm.register(wg, WaitCondition(addr, value))
        elif op == "withdraw":
            sm.withdraw(wg, WaitCondition(addr, value))
        else:
            old = mem[addr]
            mem[addr] = value
            sm.on_atomic(
                AtomicResult(op=AtomicOp.STORE, addr=addr, old=old,
                             new=value, wrote=value != old), None)
        for a in ADDRS:
            live = bool(sm._entries_for_addr(a))
            assert sm.hierarchy.l2.is_monitored(a) == live


@given(ops, st.sampled_from([1, 4, 256]))
@settings(max_examples=60)
def test_address_index_matches_a_full_scan(sequence, sets):
    """The per-address index yields the entries a scan over every set and
    way would, in the same order (set index, then way), after every
    registration, withdrawal and update."""
    env = Engine()
    cfg = GPUConfig(syncmon_sets=sets, syncmon_assoc=4)
    store = BackingStore()
    hier = MemoryHierarchy(env, cfg, store)
    log = MonitorLog(store, cfg.monitor_log_entries)
    sm = SyncMon(env, cfg, hier, log, monnr_all(), RngStream(3, "prop"))
    mem = {a: 0 for a in ADDRS}
    for op, wg, addr, value in sequence:
        if op == "register":
            sm.register(wg, WaitCondition(addr, value))
        elif op == "withdraw":
            sm.withdraw(wg, WaitCondition(addr, value))
        else:
            old = mem[addr]
            mem[addr] = value
            sm.on_atomic(
                AtomicResult(op=AtomicOp.STORE, addr=addr, old=old,
                             new=value, wrote=value != old), None)
        for a in ADDRS:
            scan = [entry for ways in sm._sets for entry in ways
                    if entry.cond.addr == a]
            assert [id(e) for e in sm._entries_for_addr(a)] == \
                [id(e) for e in scan]
        assert sorted(sm.monitored_addrs) == sorted(
            {entry.cond.addr for ways in sm._sets for entry in ways})
