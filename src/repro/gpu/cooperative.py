"""Cooperative-groups-style launches: the prior-work alternative (§II.D).

CUDA 9 cooperative groups avoid inter-WG deadlock by *static resource
assignment*: a cooperative kernel is only dispatched once the scheduler
can make **every** WG of the grid resident simultaneously, and those
resources stay assigned for the kernel's lifetime. That restores safety
for busy-waiting code but has the costs the paper calls out:

- the launch fails (or waits arbitrarily long) if the grid exceeds the
  machine — no virtualization of execution resources;
- the kernel queues behind currently-running work until enough
  contiguous capacity frees up — significant scheduling delay;
- a mid-execution resource loss is simply not allowed (the paper's
  Figure 15 scenario is unsupported).

:func:`launch_cooperative` models exactly this contract on our GPU, so
AWG's dynamic allocation can be compared against it quantitatively
(``examples/cooperative_groups.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import DeviceError
from repro.gpu.kernel import Kernel, KernelLaunch

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu import GPU


@dataclass
class CooperativeLaunch:
    """Handle for a pending-or-running cooperative launch."""

    kernel: Kernel
    requested_at: int
    dispatched_at: Optional[int] = None
    inner: Optional[KernelLaunch] = None

    @property
    def scheduling_delay(self) -> Optional[int]:
        """Cycles the grid waited for all-resident capacity."""
        if self.dispatched_at is None:
            return None
        return self.dispatched_at - self.requested_at


def _free_capacity(gpu: "GPU") -> int:
    return sum(cu.free_slots for cu in gpu.cus)


def launch_cooperative(gpu: "GPU", kernel: Kernel) -> CooperativeLaunch:
    """Launch ``kernel`` under cooperative-groups semantics.

    Raises :class:`~repro.errors.DeviceError` if the grid can never fit
    (grid > machine capacity) — the hard portability limit static
    assignment imposes. Otherwise the launch waits until *all* WGs can
    be resident at once, then places them all together.
    """
    if kernel.grid_wgs > gpu.config.wg_capacity:
        raise DeviceError(
            f"cooperative launch of {kernel.grid_wgs} WGs exceeds machine "
            f"capacity {gpu.config.wg_capacity}: static resource "
            "assignment cannot virtualize execution resources"
        )
    handle = CooperativeLaunch(kernel=kernel, requested_at=gpu.env.now)
    gpu.hold_completion()

    def _try_dispatch() -> None:
        if handle.inner is not None:
            return
        if _free_capacity(gpu) < kernel.grid_wgs:
            # poll again when WGs finish and capacity frees up
            gpu.env.call_at(gpu.config.cp_check_interval, _try_dispatch)
            return
        handle.dispatched_at = gpu.env.now
        handle.inner = gpu.launch(kernel)
        gpu.release_completion()

    _try_dispatch()
    return handle
