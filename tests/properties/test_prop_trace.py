"""Property-based tests for the structured trace stream.

The exported Chrome-trace document is treated as the system under test:
whatever the simulator did, the trace must tell a physically consistent
story (spans never overlap, every RUNNING span is explained by a
dispatch event or an in-place wakeup), must be bit-identical for
identical seeds, and must never perturb the simulation it observes.
"""

from __future__ import annotations

import json
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import awg, monnr_one, monrs_all, timeout
from repro.experiments import QUICK_SCALE, run_benchmark
from repro.trace import TraceConfig
from repro.trace.export import validate_chrome_trace

SCENARIO = QUICK_SCALE.scaled(
    total_wgs=6,
    wgs_per_group=3,
    max_wgs_per_cu=1,
    iterations=1,
    episodes=2,
    resource_loss_at_us=0.5,
    label="prop-trace",
)

benchmarks = st.sampled_from(["FAM_G", "SPM_G", "TB_LG", "SLM_L"])
policies = st.sampled_from(
    [awg(), monnr_one(), monrs_all(), timeout(20_000)]
)
seeds = st.integers(min_value=1, max_value=40)


def traced_run(bench, policy, seed, categories=None):
    cfg = (
        TraceConfig() if categories is None
        else TraceConfig(categories=categories)
    )
    return run_benchmark(
        bench, policy, SCENARIO.scaled(seed=seed), validate=False,
        config_overrides={"trace": cfg},
    )


def thread_names(trace):
    """tid -> track name, from the trace's metadata events."""
    return {
        ev["tid"]: ev["args"]["name"]
        for ev in trace["traceEvents"]
        if ev.get("ph") == "M" and ev.get("name") == "thread_name"
    }


def wg_state_transitions(trace):
    """(cycle, wg_id, state_name) per WG span, in time order: the
    triples ``GPU.state_trace`` exposes, recovered from the export."""
    names = thread_names(trace)
    out = [
        (ev["ts"], int(names[ev["tid"]][len("wg/"):]), ev["name"])
        for ev in trace["traceEvents"]
        if ev.get("ph") == "X" and names.get(ev["tid"], "").startswith("wg/")
    ]
    return sorted(out, key=lambda t: t[0])


def wg_spans(trace):
    """Per-WG-track complete events, sorted by start time."""
    names = thread_names(trace)
    spans = defaultdict(list)
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "X" and names.get(ev["tid"], "").startswith("wg/"):
            spans[names[ev["tid"]]].append(ev)
    for lst in spans.values():
        lst.sort(key=lambda ev: ev["ts"])
    return spans


@given(benchmarks, policies, seeds)
@settings(max_examples=12)
def test_spans_never_overlap_per_wg(bench, policy, seed):
    result = traced_run(bench, policy, seed)
    for track, lst in wg_spans(result.trace).items():
        for prev, cur in zip(lst, lst[1:]):
            assert cur["ts"] >= prev["ts"] + prev["dur"], (
                f"{track}: span {cur['name']}@{cur['ts']} overlaps "
                f"{prev['name']}@{prev['ts']}+{prev['dur']}"
            )


@given(benchmarks, policies, seeds)
@settings(max_examples=12)
def test_running_spans_are_explained(bench, policy, seed):
    """Every RUNNING span begins at a dispatcher dispatch/swap-in
    instant, or directly follows a STALLED span (in-place wakeup of a
    still-resident WG); and it ends in a stall, a switch-out, or DONE."""
    result = traced_run(bench, policy, seed)
    trace = result.trace
    dispatches = {
        (ev["ts"], ev["args"].get("wg"))
        for ev in trace["traceEvents"]
        if ev.get("ph") == "i" and ev["name"] in ("dispatch", "swap-in")
    }
    for track, lst in wg_spans(trace).items():
        wg_id = int(track.split("/", 1)[1])
        for i, ev in enumerate(lst):
            if ev["name"] != "running":
                continue
            if (ev["ts"], wg_id) not in dispatches:
                pred = lst[i - 1]["name"] if i else None
                assert pred == "stalled", (
                    f"{track}: running span at {ev['ts']} has no dispatch "
                    f"instant and predecessor {pred!r} is not a stall"
                )
            succ = lst[i + 1]["name"] if i + 1 < len(lst) else None
            assert succ in (None, "stalled", "switching_out", "done"), (
                f"{track}: running span at {ev['ts']} followed by {succ!r}"
            )


@given(benchmarks, policies, seeds)
@settings(max_examples=8)
def test_trace_is_deterministic(bench, policy, seed):
    first = traced_run(bench, policy, seed)
    second = traced_run(bench, policy, seed)
    assert json.dumps(first.trace, sort_keys=True) == json.dumps(
        second.trace, sort_keys=True
    )


@given(benchmarks, policies, seeds)
@settings(max_examples=8)
def test_tracing_never_perturbs_the_simulation(bench, policy, seed):
    traced = traced_run(bench, policy, seed)
    plain = run_benchmark(bench, policy, SCENARIO.scaled(seed=seed),
                          validate=False)
    assert plain.trace is None
    assert traced.cycles == plain.cycles
    assert traced.completed == plain.completed
    assert traced.stats == plain.stats


@given(benchmarks, policies, seeds)
@settings(max_examples=6)
def test_export_is_schema_valid(bench, policy, seed):
    result = traced_run(bench, policy, seed)
    assert validate_chrome_trace(result.trace) == []


@given(benchmarks, policies, seeds)
@settings(max_examples=6)
def test_wg_category_matches_live_state_trace(bench, policy, seed):
    """The offline transition list recovered from the export equals the
    live GPU view (same tracer, two consumers)."""
    result = run_benchmark(
        bench, policy, SCENARIO.scaled(seed=seed), validate=False,
        keep_gpu=True,
        config_overrides={"trace": TraceConfig(categories=("wg",))},
    )
    offline = wg_state_transitions(result.trace)
    live = [
        (cycle, wg_id, state.value)
        for cycle, wg_id, state in result.gpu.state_trace
    ]
    assert offline == live
