"""Memory for saved WG contexts (paper §IV.A, Figures 5 and 13).

GPU WG contexts are large (2-10 KB for the evaluated benchmarks): up to
1024 work-items with private vector registers, per-wavefront scalar
registers, and the WG's LDS allocation. A context switch streams the
context to/from global memory at DRAM bandwidth plus a fixed drain /
scheduling overhead (:class:`~repro.gpu.command_processor.CommandProcessor`
charges both), so avoiding context switches is the first design goal of
cooperative scheduling.
"""


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
