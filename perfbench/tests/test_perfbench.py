"""Tests of the benchmark itself (not of the program it measures)."""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.policies import baseline
from repro.experiments.matrix import Cell

from perfbench import run as bench_run
from perfbench import hostspeed
from perfbench.harness import (
    CellTimer, nearest_rank, run_pass, scale_passes, tail_percentile,
)
from perfbench.hostspeed import HostSpeed
from perfbench.tracing import (
    CALL, GENERATOR, LAYER_UNITS, TARGETS, Instrumentation, SpanRecorder,
    layer_metrics,
)
from perfbench.workloads import (
    DEFAULT_SEED, WORKLOADS, cell_id, cell_list, check_cell, result_digest,
)

ROOT = Path(__file__).resolve().parents[2]


def _quick_cell(policy_name, seed=DEFAULT_SEED):
    return next(request for sweep in cell_list("quick-sweep", seed)
                for request in sweep if request.policy.name == policy_name)


def _small_sweeps():
    """Two quick-scale cells: cheap, but they reach every simulator layer."""
    return [[_quick_cell("Baseline"), _quick_cell("AWG")]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_cell_list(workload):
    first = [[r.spec() for r in sweep] for sweep in cell_list(workload, 5)]
    again = [[r.spec() for r in sweep] for sweep in cell_list(workload, 5)]
    other = [[r.spec() for r in sweep] for sweep in cell_list(workload, 6)]
    assert first == again
    assert first != other
    # the seed reaches the program only as Scenario.seed
    for spec, spec6 in zip(sum(first, []), sum(other, [])):
        assert spec["scenario"]["seed"] == 5
        spec6["scenario"]["seed"] = 5
        assert spec == spec6


def test_every_cell_has_a_recorded_expectation():
    expected = json.loads(bench_run.EXPECTED.read_text())
    assert expected["seed"] == DEFAULT_SEED
    for workload in WORKLOADS:
        for sweep in cell_list(workload, DEFAULT_SEED):
            for request in sweep:
                assert cell_id(request) in expected["cells"]


def test_same_seed_same_counts(tmp_path):
    def traced():
        with Instrumentation(SpanRecorder()) as inst:
            _, _, cache = run_pass(_small_sweeps(), tmp_path)
        return layer_metrics(inst, cache, 1.0, 1.0)

    first, again = traced(), traced()
    assert set(first) == set(LAYER_UNITS) - {"fail_ratio"}
    exact = [name for name, unit in LAYER_UNITS.items()
             if unit != "s" and name not in ("trace_overhead", "fail_ratio")]
    assert {n: first[n] for n in exact} == {n: again[n] for n in exact}
    assert first["sim.cycles"] > 0 and first["mem.atomic.calls"] > 0


def test_wrappers_removed_after_traced_run(tmp_path):
    before = [vars(owner)[attr] for owner, attr, _, _ in TARGETS]
    rec = SpanRecorder()
    with Instrumentation(rec):
        assert [vars(o)[a] for o, a, _, _ in TARGETS] != before
        run_pass(_small_sweeps(), tmp_path)
    assert [vars(o)[a] for o, a, _, _ in TARGETS] == before
    # spans of one cell share its index; orchestration spans have none
    cell_of = {rec.names[n]: set() for n in rec.span_name}
    for cell, n in zip(rec.span_cell, rec.span_name):
        cell_of[rec.names[n]].add(cell)
    assert cell_of["matrix"] == {-1}
    assert cell_of["gpu.run"] == cell_of["mem.atomic"] == {0, 1}
    with pytest.raises(KeyError):
        with Instrumentation(SpanRecorder()):
            raise KeyError("boom")
    assert [vars(o)[a] for o, a, _, _ in TARGETS] == before


class _Toy:
    def outer(self):
        time.sleep(0.02)
        self.inner()

    def inner(self):
        time.sleep(0.03)

    def steps(self):
        yield 1
        self.inner()
        yield 2


def test_self_time_excludes_traced_children():
    rec = SpanRecorder()
    targets = ((_Toy, "outer", "outer", CALL),
               (_Toy, "inner", "inner", CALL),
               (_Toy, "steps", "steps", GENERATOR))
    with Instrumentation(rec, targets):
        _Toy().outer()
        assert list(_Toy().steps()) == [1, 2]
    calls = dict(zip(rec.names, rec.calls))
    self_s = {n: ns / 1e9 for n, ns in zip(rec.names, rec.self_ns)}
    assert calls == {"outer": 1, "inner": 2, "steps": 1}
    assert 0.02 <= self_s["outer"] < 0.045  # inner (0.03 s) excluded
    assert self_s["inner"] >= 0.06
    assert self_s["steps"] < 0.01
    names = [rec.names[i] for i in rec.span_name]
    # one span per generator resume: two yields and the final return
    assert names.count("steps") == 3
    inner_spans = [i for i, n in enumerate(names) if n == "inner"]
    assert [names[rec.span_parent[i]] for i in inner_spans] == ["outer", "steps"]


@pytest.mark.parametrize("count, percentile", [
    (11, 9), (20, 50), (24, 58), (54, 81), (100, 90), (258, 96), (1000, 99),
])
def test_tail_percentile_rule(count, percentile):
    assert tail_percentile(count) == percentile
    values = list(range(count))
    value = nearest_rank(values, percentile)
    assert sum(v > value for v in values) >= 10
    # one percentile higher would leave fewer than ten beyond
    assert sum(v > nearest_rank(values, percentile + 1) for v in values) < 10


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(10)


@pytest.fixture(scope="module")
def quick_cell():
    request = _quick_cell("AWG")
    return request, request.execute()


def _expected_for(request, result):
    keys = sorted(result.stats)
    return {"stat_keys": keys, "cells": {cell_id(request): {
        "outcome": result.reason, "digest": result_digest(result, keys)}}}


def test_perturbed_cell_result_is_a_failure(quick_cell):
    request, result = quick_cell
    expected = _expected_for(request, result)
    assert request.policy.provides_ifp and result.ok
    assert check_cell(Cell(request, result=result), expected, True) is None

    slower = replace(result, cycles=result.cycles + 1)
    assert "digest" in check_cell(Cell(request, result=slower), expected, True)
    # on a held-out seed only the first three checks apply
    assert check_cell(Cell(request, result=slower), expected, False) is None

    stats = dict(result.stats, **{"device.atomics": -1.0})
    changed = replace(result, stats=stats)
    assert check_cell(Cell(request, result=changed), expected, True)

    hung = replace(result, completed=False, deadlocked=True, reason="watchdog")
    assert "did not complete" in check_cell(Cell(request, result=hung),
                                            expected, False)

    bad_memory = {"type": "AssertionError", "message": "mutex data wrong"}
    assert "validation" in check_cell(Cell(request, failure=bad_memory),
                                      expected, False)
    raised = {"type": "DeviceError", "message": "boom"}
    assert "raised" in check_cell(Cell(request, failure=raised),
                                  expected, False)


def test_non_ifp_cell_must_end_as_recorded(quick_cell):
    request, result = quick_cell
    request = replace(request, policy=baseline(),
                      scenario=request.scenario.scaled(resource_loss_at_us=1.0))
    expected = {"stat_keys": [], "cells": {
        cell_id(request): {"outcome": "watchdog", "digest": ""}}}
    assert "expected 'watchdog'" in check_cell(Cell(request, result=result),
                                               expected, False)
    stopped = replace(result, completed=False, deadlocked=True, reason="watchdog")
    assert check_cell(Cell(request, result=stopped), expected, False) is None


def test_every_named_metric_is_emitted_with_a_unit(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS

    load = {"walls": [2.0, 1.0, 3.0], "samples": [i / 100 for i in range(30)],
            "peak_rss_mb": 40.0}
    e2e = bench_run.end_to_end_metrics(load, setup=[0.3, 0.2, 0.4])
    assert e2e["wall_s"] == {"value": 2.0, "unit": "s"}
    assert e2e["setup_s"]["value"] == 0.3
    assert "(p66) over 30 executed cells" in capsys.readouterr().out
    assert all(set(m) == {"value", "unit"} and m["value"] > 0
               for m in e2e.values())

    layers = bench_run.layer_metrics(
        {"layers": {name: 1 for name in LAYER_UNITS if name != "fail_ratio"}},
        fail_ratio=0.0)
    assert list(layers) == list(LAYER_UNITS)
    assert all(m["unit"] == LAYER_UNITS[n] for n, m in layers.items())


def _speed(*probes):
    """A HostSpeed holding the given ``(start, end)`` probes."""
    speed = HostSpeed()
    for start, end in probes:
        speed.starts.append(start)
        speed.ends.append(end)
    return speed


def test_host_speed_scales_by_the_probes_around_an_interval():
    ref = hostspeed.REFERENCE_S
    # probes at half and at twice the reference time, far apart
    speed = _speed((0.0, ref / 2), (10.0, 10.0 + 2 * ref))
    assert speed.scale(0.1, 0.2) == pytest.approx(ref / (1.25 * ref))
    # only probes within WINDOW_S count, plus the nearest on each side
    speed = _speed((0.0, ref / 2), (5.0, 5.0 + ref), (5.5, 5.5 + ref),
                   (20.0, 20.0 + 2 * ref))
    assert speed.scale(5.3, 5.4) == pytest.approx(1.0)
    assert speed.scale(30.0, 31.0) == pytest.approx(0.5)
    assert speed.probed_seconds(4.9, 6.0) == pytest.approx(2 * ref)
    # at the reference speed a pass keeps its raw time, less the probing
    timer = CellTimer()
    timer.samples, timer.intervals = [1.0, 3.0], [(5.1, 5.2), (5.3, 5.4)]
    walls, samples = scale_passes(speed, timer, [(5.0, 5.6, 4.5 + 2 * ref, 0, 2)])
    assert samples == pytest.approx([1.0, 3.0])
    assert walls == pytest.approx([4.5])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
