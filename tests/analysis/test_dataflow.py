"""Dataflow passes: reaching RMWs, locksets, wait classification."""

import ast
import textwrap

from repro.analysis.cfg import cfgs_for_source
from repro.analysis.dataflow import (
    BLOCKING_WAIT,
    BUSY_SPIN,
    INTERVAL_WAIT,
    classify_waits,
    collect_writes,
    lockset,
    reaching_rmw,
)


def _cfg(source):
    cfgs = list(cfgs_for_source(textwrap.dedent(source), "<test>"))
    assert len(cfgs) == 1
    return cfgs[0]


def _op(cfg, name, nth=0):
    return [op for op in cfg.ops() if op.name == name][nth]


# -- reaching RMW definitions -------------------------------------------------

def test_rmw_reaches_later_wait():
    cfg = _cfg("""
        def kernel(ctx):
            yield from ctx.atomic_add(0x10, 1)
            yield from ctx.sync_wait(0x10, 0)
    """)
    reach = reaching_rmw(cfg).at_op(cfg, _op(cfg, "sync_wait"))
    assert len(reach) == 1


def test_rmw_after_wait_does_not_reach_it():
    cfg = _cfg("""
        def kernel(ctx):
            yield from ctx.sync_wait(0x10, 0)
            yield from ctx.atomic_add(0x10, 1)
    """)
    reach = reaching_rmw(cfg).at_op(cfg, _op(cfg, "sync_wait"))
    assert reach == {}


def test_rmw_reaches_around_a_branch():
    cfg = _cfg("""
        def kernel(ctx):
            if ctx.wg_id == 0:
                yield from ctx.atomic_add(0x10, 1)
            yield from ctx.sync_wait(0x10, 0)
    """)
    # May-analysis: a def on *some* path reaches the join.
    reach = reaching_rmw(cfg).at_op(cfg, _op(cfg, "sync_wait"))
    assert len(reach) == 1


# -- lockset ------------------------------------------------------------------

def test_lockset_depth_inside_and_outside_critical_section():
    cfg = _cfg("""
        def kernel(ctx, m):
            yield from ctx.store(0x10, 1)
            yield from m.acquire(ctx)
            yield from ctx.store(0x20, 2)
            yield from m.release(ctx)
            yield from ctx.store(0x30, 3)
    """)
    ls = lockset(cfg)
    assert ls.at_op(cfg, _op(cfg, "store", 0)) == 0
    assert ls.at_op(cfg, _op(cfg, "store", 1)) == 1
    assert ls.at_op(cfg, _op(cfg, "store", 2)) == 0


def test_lockset_is_a_must_analysis_over_branches():
    cfg = _cfg("""
        def kernel(ctx, m):
            yield from m.acquire(ctx)
            v = yield from ctx.load(0x10)
            if v:
                yield from m.release(ctx)
            yield from ctx.store(0x20, 1)
    """)
    # One path released: the store is NOT protected on every path.
    assert lockset(cfg).at_op(cfg, _op(cfg, "store")) == 0


def test_conditional_early_release_never_goes_negative():
    cfg = _cfg("""
        def kernel(ctx, m):
            v = yield from ctx.load(0x10)
            if v:
                yield from m.release(ctx)
            yield from m.release(ctx)
            yield from ctx.store(0x20, 1)
    """)
    assert lockset(cfg).at_op(cfg, _op(cfg, "store")) == 0


# -- wait classification ------------------------------------------------------

def test_raw_poll_loop_is_a_busy_spin():
    cfg = _cfg("""
        def kernel(ctx):
            while True:
                v = yield from ctx.load(0x10)
                if v:
                    break
    """)
    sites = classify_waits(cfg)
    assert [s.kind for s in sites] == [BUSY_SPIN]
    assert sites[0].polls == ["load"]


def test_bounded_poll_loop_is_not_a_busy_spin():
    cfg = _cfg("""
        def kernel(ctx):
            for i in range(8):
                yield from ctx.load(0x10)
    """)
    assert classify_waits(cfg) == []


def test_loop_with_blessed_wait_is_not_a_busy_spin():
    cfg = _cfg("""
        def kernel(ctx):
            while True:
                v = yield from ctx.sync_wait(0x10, 1)
                if v:
                    break
    """)
    sites = classify_waits(cfg)
    assert [s.kind for s in sites] == [BLOCKING_WAIT]


def test_satisfied_predicate_makes_an_interval_wait():
    cfg = _cfg("""
        def kernel(ctx):
            yield from ctx.sync_wait(0x10, 1,
                                     satisfied=lambda v: v >= 1)
    """)
    sites = classify_waits(cfg)
    assert [s.kind for s in sites] == [INTERVAL_WAIT]
    assert sites[0].monotonic and not sites[0].fused


def test_acquire_test_and_set_is_a_fused_interval_wait():
    cfg = _cfg("""
        def kernel(ctx):
            yield from ctx.acquire_test_and_set(0x10)
    """)
    sites = classify_waits(cfg)
    assert [s.kind for s in sites] == [INTERVAL_WAIT]
    assert sites[0].fused


def test_wait_guards_capture_role_divergence():
    cfg = _cfg("""
        def kernel(ctx):
            if ctx.grid_index == 0:
                yield from ctx.sync_wait(0x10, 1)
    """)
    (site,) = classify_waits(cfg)
    assert [ast.unparse(test) for test, _ in site.guards] == [
        "ctx.grid_index == 0"]


# -- write collection ---------------------------------------------------------

def test_collect_writes_finds_stores_and_atomics():
    cfg = _cfg("""
        def kernel(ctx):
            yield from ctx.store(0x10, 1)
            yield from ctx.atomic_exch(0x20, 0)
            yield from ctx.load(0x30)
    """)
    names = sorted(w.op.name for w in collect_writes(cfg))
    assert names == ["atomic_exch", "store"]
