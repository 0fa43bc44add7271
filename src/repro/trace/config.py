"""Trace configuration: category filters and the ring-buffer bound."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigError

#: every event category the simulator emits, in presentation order
CATEGORIES: Tuple[str, ...] = (
    "wg",        # WG state spans, retry-timer expiries, watchdog verdicts
    "dispatch",  # WG placements, swap-ins, ready transitions, notify delivery
    "sync",      # SyncMon registrations, notifies, withdrawals
    "predict",   # resume-predictor decisions, stall-time predictions
    "preempt",   # CU loss/restore and forced evictions
    "fault",     # injected faults (mirrors the faults.* stats)
    "cp",        # Command Processor: context switches, log drains, spills
    "engine",    # scheduler health: peak and final pending, events fired
)

#: events the ring keeps; older ones are dropped first and counted in
#: the export's ``awg.dropped``
BUFFER_SIZE = 65_536


@dataclass(frozen=True)
class TraceConfig:
    """What to record: ``categories`` filters which subsystems record
    events. The ring keeps the last :data:`BUFFER_SIZE` of them."""

    categories: Tuple[str, ...] = CATEGORIES

    def __post_init__(self) -> None:
        # tolerate lists (e.g. from JSON round trips) by normalizing
        object.__setattr__(self, "categories", tuple(self.categories))
        unknown = [c for c in self.categories if c not in CATEGORIES]
        if unknown:
            raise ConfigError(
                f"unknown trace categories {unknown}; "
                f"known: {', '.join(CATEGORIES)}"
            )
        if len(set(self.categories)) != len(self.categories):
            raise ConfigError("duplicate trace categories")

    @classmethod
    def parse(cls, spec: str) -> "TraceConfig":
        """Build from a CLI-style comma list, e.g. ``"wg,sync,dispatch"``.
        ``"all"`` (or an empty string) selects every category."""
        text = spec.strip()
        if not text or text == "all":
            return cls()
        names = tuple(c.strip() for c in text.split(",") if c.strip())
        return cls(categories=names)
