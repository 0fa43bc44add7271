"""Exception hierarchy for the repro package.

Every error raised by the simulator derives from :class:`ReproError` so
callers can catch simulator failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class MemoryError_(ReproError):
    """An invalid memory access (unaligned, unallocated, out of range)."""


class DeviceError(ReproError):
    """A kernel performed an illegal device-side operation."""
