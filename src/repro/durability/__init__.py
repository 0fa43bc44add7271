"""Durable-state I/O for the result cache and repro bundles.

:mod:`repro.durability.vfs` is the one gateway those writers go
through: :func:`~repro.durability.vfs.write_atomic_text` (temp file +
fsync + rename, bounded retries on EINTR/EIO), thin ``v*`` passthroughs
over ``os``, and an :class:`~repro.durability.vfs.IOGateway` that tests
arm to record each writer's operations and inject seeded EIO, ENOSPC,
EINTR, short-write and fsync-EIO faults.
"""

from repro.durability.vfs import (  # noqa: F401
    DurabilityPlan, IOGateway, OpRecord, armed, current_gateway,
    reset_stats, stats_snapshot, write_atomic_text,
)
