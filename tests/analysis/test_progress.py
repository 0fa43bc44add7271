"""Progress-dependency pass: wait-for graphs over the shipped protocols."""

import pytest

from repro.analysis.progress import (
    analyze_benchmark,
    protocol_functions,
    render_dot,
)
from repro.workloads.registry import benchmark_names


def _edges(bench):
    return analyze_benchmark(bench).edges


def test_protocol_index_covers_the_shipped_primitives():
    index = protocol_functions()
    for qual in ("SpinMutex.acquire", "FAMutex.acquire",
                 "SleepMutex.acquire", "AtomicTreeBarrier.arrive",
                 "LFTreeBarrier.arrive", "make_mutex_body.body",
                 "make_barrier_body.body"):
        assert qual in index, f"{qual} missing from the protocol index"


@pytest.mark.parametrize("bench", benchmark_names())
def test_every_shipped_benchmark_analyzes_cleanly(bench):
    analysis = analyze_benchmark(bench)
    assert analysis.errors == [], analysis.errors
    assert analysis.edges, f"{bench}: no wait-for edges found"
    # no raw spins anywhere in the shipped tree
    assert all(e.profile.kind != "busy-spin" for e in analysis.edges)
    # every blessed wait statically matched to a satisfying writer
    assert all(e.matched for e in analysis.edges), [
        (e.function, e.base) for e in analysis.edges if not e.matched]


def test_spin_mutex_edge_is_fused_contender_to_holder():
    edge = next(e for e in _edges("SPM_G")
                if e.function == "SpinMutex.acquire")
    assert (edge.waiter, edge.updater) == ("contender", "holder")
    assert edge.base == "lock_addr"
    assert edge.profile.fused
    assert edge.profile.kind == "interval-wait"


def test_sleep_mutex_computed_slot_needs_its_hint():
    edge = next(e for e in _edges("SLM_G")
                if e.function == "SleepMutex.acquire")
    assert edge.hinted, (
        "the _slot wait address is computed; only the WaitHint on "
        "SleepMutex.acquire can match it")
    assert edge.matched
    assert edge.profile.single_waiter


def test_lf_tree_barrier_elects_leader_and_root_roles():
    roles = set()
    for e in _edges("LFTB_LG"):
        roles.add(e.waiter)
        roles.add(e.updater)
    assert {"member", "leader", "root"} <= roles


def test_stress_drill_has_no_protocol():
    analysis = analyze_benchmark("_KILL")
    assert analysis.edges == []
    assert analysis.errors, "a drill without a protocol must say so"


def test_render_dot_clusters_per_benchmark():
    dot = render_dot([analyze_benchmark("SPM_G"),
                      analyze_benchmark("TB_LG")])
    assert dot.startswith("digraph")
    assert "cluster_SPM_G" in dot and "cluster_TB_LG" in dot
    assert '"SPM_G.contender" -> "SPM_G.holder"' in dot
