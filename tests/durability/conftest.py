"""Shared helpers for the durable-writer tests."""

from repro.experiments.runner import RunResult


def sample_result() -> RunResult:
    """One fixed, fully deterministic result to persist (constant field
    values: payload bytes must not vary between runs)."""
    return RunResult(
        benchmark="bench-a", policy="awg", scenario="durability",
        cycles=100, completed=True, deadlocked=False, reason="completed",
        context_switches=3, wg_running_cycles=93, wg_waiting_cycles=7,
        stats={"sync.acquires": 9.0})
