"""Discrete-event simulation substrate.

A small, from-scratch, generator-based discrete-event kernel in the style
of SimPy, specialized for cycle-accurate-ish hardware modelling:

- :class:`~repro.sim.engine.Engine` — the event heap and simulation clock
  (integer cycles).
- :class:`~repro.sim.events.Event` — one-shot completion events with
  callbacks (``Engine.timeout`` builds a delayed one);
  :class:`~repro.sim.events.AnyOf`, :class:`~repro.sim.events.AllOf`.
- :class:`~repro.sim.process.Process` — a generator that yields events
  (or ``QUEUED`` when its op has queued its resume) and is resumed with
  their values.
- :class:`~repro.sim.resources.FifoResource` — a FIFO-arbitrated resource
  used to model issue ports, cache banks and the command processor.
- :mod:`~repro.sim.stats` — counters and running means.

Import each name from its module; this package re-exports nothing.
"""
