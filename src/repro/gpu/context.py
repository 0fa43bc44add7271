"""WG context save/restore cost model (paper §IV.A, Figure 5).

GPU WG contexts are large (2-10 KB for the evaluated benchmarks): up to
1024 work-items with private vector registers, per-wavefront scalar
registers, and the WG's LDS allocation. A context switch streams the
context to/from global memory at DRAM bandwidth plus a fixed drain /
scheduling overhead, so avoiding context switches is the first design
goal of cooperative scheduling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.config import GPUConfig
    from repro.gpu.kernel import Kernel


def context_bytes(kernel: "Kernel") -> int:
    """Architectural context footprint of one WG of ``kernel``."""
    return kernel.context_bytes()


def switch_cycles(config: "GPUConfig", nbytes: int) -> int:
    """Fixed (non-bandwidth) cycles charged per context switch direction.

    The bandwidth-dependent part is charged separately through
    :meth:`repro.mem.hierarchy.MemoryHierarchy.bulk_transfer`, so it
    contends with other DRAM traffic.
    """
    del nbytes  # bandwidth handled by bulk_transfer
    return config.context_switch_overhead


class ContextArena:
    """Tracks CP-allocated memory for saved WG contexts (paper Fig 13 text:
    0.74-3.11 MB across benchmarks on their machine)."""

    def __init__(self) -> None:
        self._saved: dict = {}
        self.peak_bytes = 0

    def save(self, wg_id: int, nbytes: int) -> None:
        self._saved[wg_id] = nbytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def restore(self, wg_id: int) -> None:
        self._saved.pop(wg_id, None)

    @property
    def current_bytes(self) -> int:
        return sum(self._saved.values())
