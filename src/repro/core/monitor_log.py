"""The Monitor Log: AWG's virtualization interface (§V.A).

A circular buffer in *global memory* holding (monitored address, waiting
value, waiting WG id) entries. When the SyncMon's condition cache or
waiting-WG list reaches capacity, it appends entries here instead of
failing; the Command Processor periodically drains the log into its own
lookup-efficient table and checks the spilled conditions by reading
memory. If the log itself is full, the waiting atomic fails without
putting the WG to sleep — the WG busy-retries under Mesa semantics until
the CP frees entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mem.backing import BackingStore

#: bytes per log entry: address (8) + value (4) + WG id (4)
ENTRY_BYTES = 16


@dataclass(frozen=True)
class LogEntry:
    addr: int
    value: int
    wg_id: int


class MonitorLog:
    """Circular buffer of spilled waiting conditions, resident in memory."""

    def __init__(self, store: BackingStore, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("Monitor Log needs capacity >= 1")
        self.capacity = capacity
        self.base_addr = store.alloc(capacity * ENTRY_BYTES, align=64)
        self._entries: List[Optional[LogEntry]] = [None] * capacity
        self._head = 0  # next entry the CP will drain
        self._tail = 0  # next free slot
        self._count = 0
        self.peak_occupancy = 0

    # -- producer side (SyncMon) ------------------------------------------
    @property
    def full(self) -> bool:
        return self._count >= self.capacity

    @property
    def occupancy(self) -> int:
        return self._count

    def append(self, entry: LogEntry) -> bool:
        """Write one entry at the tail; False (reject) if the log is full."""
        if self.full:
            return False
        self._entries[self._tail] = entry
        self._tail = (self._tail + 1) % self.capacity
        self._count += 1
        self.peak_occupancy = max(self.peak_occupancy, self._count)
        return True

    # -- consumer side (Command Processor) -----------------------------------
    def drain(self, max_entries: Optional[int] = None) -> List[LogEntry]:
        """Remove up to ``max_entries`` entries between head and tail."""
        limit = self._count if max_entries is None else min(max_entries, self._count)
        out: List[LogEntry] = []
        for _ in range(limit):
            entry = self._entries[self._head]
            assert entry is not None
            self._entries[self._head] = None
            self._head = (self._head + 1) % self.capacity
            self._count -= 1
            out.append(entry)
        return out
