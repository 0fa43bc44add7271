"""Figure 6 rendering: timeline signatures of the scheduling policies.

The paper's Figure 6 is a qualitative diagram of how each policy behaves
between a failed synchronization attempt and its resumption. We render
the real thing: per-WG state timelines from an actual simulation, as
compact ASCII strips (one character per time bucket).

The strips are built from the structured trace stream
(:mod:`repro.trace`): ``trace_run`` turns on the ``wg`` category, the
tracer records one span per state a WG occupies, and the renderer below
reads them through the ``GPU.state_trace`` view. ``python -m repro
timeline`` prints the strips of four policies; the same spans open in
Perfetto from ``python -m repro run BENCH POLICY --trace --out t.json``.

Legend: ``.`` pending, ``R`` running, ``s`` stalled, ``x`` switching out,
``o`` switched out, ``r`` ready, ``i`` resuming (swap-in), ``#`` done.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.policies import PolicySpec
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU
from repro.gpu.workgroup import WGState
from repro.trace import TraceConfig
from repro.workloads.registry import build_benchmark

_GLYPH = {
    WGState.PENDING: ".",
    WGState.RUNNING: "R",
    WGState.STALLED: "s",
    WGState.SWITCHING_OUT: "x",
    WGState.SWITCHED_OUT: "o",
    WGState.READY: "r",
    WGState.RESUMING: "i",
    WGState.DONE: "#",
}

_LEGEND = ("legend: . pending  R running  s stalled  x saving  "
           "o switched-out  r ready  i restoring  # done")


def glyph_for(state: WGState) -> str:
    """The strip character for one WG state.

    Raises rather than rendering a blank for an unmapped state — a new
    ``WGState`` member must be given a glyph here, not silently vanish
    from every timeline."""
    try:
        return _GLYPH[state]
    except KeyError:
        known = ", ".join(s.name for s in _GLYPH)
        raise ValueError(
            f"no timeline glyph for {state!r}; add it to "
            f"experiments.timeline._GLYPH (known: {known})"
        ) from None


def trace_run(
    policy: PolicySpec,
    benchmark: str = "FAM_G",
    total_wgs: int = 6,
    wgs_per_group: int = 3,
    iterations: int = 2,
    max_wgs_per_cu: int = 2,
    num_cus: int = 2,
):
    """Run a tiny oversubscription-prone configuration with tracing on."""
    config = GPUConfig(
        num_cus=num_cus,
        max_wgs_per_cu=max_wgs_per_cu,
        trace=TraceConfig(categories=("wg",)),
        deadlock_window=250_000,
    )
    gpu = GPU(config, policy)
    kernel = build_benchmark(benchmark, gpu, total_wgs=total_wgs,
                             wgs_per_group=wgs_per_group,
                             iterations=iterations)
    gpu.launch(kernel)
    outcome = gpu.run()
    return gpu, outcome


def render_timeline(gpu: GPU, width: int = 100) -> str:
    """ASCII strip chart of every WG's state over the whole run."""
    wg_ids = [wg.wg_id for wg in gpu.wgs]
    end = max(1, gpu.env.now)
    bucket = max(1, end // width)
    per_wg: Dict[int, List[tuple]] = {wg_id: [] for wg_id in wg_ids}
    for cycle, wg_id, state in gpu.state_trace:
        per_wg.setdefault(wg_id, []).append((cycle, state))
    lines = [f"one column = {bucket:,} cycles; run = {end:,} cycles"]
    for wg_id in wg_ids:
        steps = per_wg[wg_id]
        strip = []
        state = WGState.PENDING
        idx = 0
        for col in range(width):
            t = col * bucket
            while idx < len(steps) and steps[idx][0] <= t:
                state = steps[idx][1]
                idx += 1
            strip.append(glyph_for(state))
        lines.append(f"WG{wg_id:>3d} |{''.join(strip)}|")
    lines.append(_LEGEND)
    return "\n".join(lines)


def policy_signature(gpu: GPU, wg_id: int = 0) -> List[str]:
    """The ordered list of distinct states one WG moved through —
    a machine-checkable version of the Figure 6 signatures."""
    return [state.name for cycle, wid, state in gpu.state_trace
            if wid == wg_id]
