"""Structured execution tracing (:mod:`repro.trace`).

A :class:`~repro.trace.tracer.Tracer` is attached to a
:class:`~repro.gpu.gpu.GPU` when :class:`~repro.gpu.config.GPUConfig`
carries a :class:`~repro.trace.config.TraceConfig`. Instrumentation
sites in the simulator (dispatcher, work-groups, SyncMon, Command
Processor, preemption, fault injector, end-of-run engine health) emit
typed events into a bounded ring buffer:

- **spans** for WG residency: one per state the WG occupies
  (``running``, ``stalled``, ``switched_out``, ...);
- **instants** for one-shot occurrences: WG placements, notifies, resume
  predictions, faults, evictions, retry-timer expiries;
- **counter samples** for occupancy curves: waiting conditions,
  waiting WGs, Monitor Log fill.

When ``GPUConfig.trace`` is None every instrumentation site reduces to
one attribute check (``gpu.tracer is None``) — tracing is zero-cost
when off and never alters simulated timing or stats when on.

The tracer only records; every number a figure reads comes from the
run's stats. The export is Chrome/Perfetto ``trace_event`` JSON
(:func:`~repro.trace.export.write_chrome_trace`, loadable at
https://ui.perfetto.dev), e.g. the Figure 6 per-WG state timelines.
"""

from repro.trace.config import CATEGORIES, TraceConfig
from repro.trace.tracer import Tracer

__all__ = ["CATEGORIES", "TraceConfig", "Tracer"]
