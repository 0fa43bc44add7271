"""Tests for Figure 6 timeline tracing and rendering."""

import pytest

from repro.core.policies import awg, monnr_all, timeout
from repro.experiments.timeline import (
    NOTIFIED, TIMER, glyph_for, render_timeline, trace_run, wait_signature,
)
from repro.gpu.workgroup import WGState


def test_trace_records_transitions():
    gpu, outcome = trace_run(monnr_all())
    assert outcome.ok
    assert gpu.state_trace
    # every WG ends DONE and its last recorded transition says so
    last = {}
    for cycle, wg_id, state in gpu.state_trace:
        last[wg_id] = state
    assert all(s is WGState.DONE for s in last.values())


def test_trace_is_time_ordered():
    gpu, _ = trace_run(awg())
    cycles = [c for c, _w, _s in gpu.state_trace]
    assert cycles == sorted(cycles)


def test_render_contains_every_wg():
    gpu, _ = trace_run(timeout(10_000))
    lines = render_timeline(gpu, width=40)
    text = "\n".join(lines)
    for wg in gpu.wgs:
        assert f"WG{wg.wg_id:>3d}" in text
    assert lines[0].startswith("one column = ")
    # strips are exactly the requested width
    for line in lines:
        if line.startswith("WG"):
            assert len(line.split("|")[1]) == 40


def test_signatures_distinguish_policies():
    """Oversubscribed waits: Timeout's timer restores its switched-out
    WGs; monitor policies restore theirs on notification."""
    gpu_t, _ = trace_run(timeout(10_000))
    gpu_m, _ = trace_run(monnr_all())
    sig_t = wait_signature(gpu_t)
    sig_m = wait_signature(gpu_m)
    assert sig_t[TIMER] > 0 == sig_t[NOTIFIED]
    assert sig_m[NOTIFIED] > 0 == sig_m[TIMER]


def test_every_wg_state_has_a_glyph():
    """A new WGState member must be given a strip character; glyph_for
    raising (rather than rendering blanks) is what enforces that."""
    glyphs = [glyph_for(state) for state in WGState]
    assert all(isinstance(g, str) and len(g) == 1 for g in glyphs)
    assert len(set(glyphs)) == len(glyphs), "glyphs must be distinct"


def test_glyph_for_rejects_unknown_state():
    with pytest.raises(ValueError, match="no timeline glyph"):
        glyph_for("not-a-state")


def test_tracing_off_by_default():
    from tests.gpu.conftest import make_gpu, simple_kernel

    gpu = make_gpu(awg())

    def body(ctx):
        yield from ctx.compute(10)

    gpu.launch(simple_kernel(body))
    gpu.run()
    assert gpu.state_trace == []
