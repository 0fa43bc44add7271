"""Kernel and launch abstractions.

A kernel body is a Python generator function taking a
:class:`~repro.gpu.device_api.WavefrontCtx`; the generator yields device
operations (via ``yield from ctx.<op>(...)``). Each WG runs ``body`` as
one coroutine: the master thread of the paper's Figure 10 kernels, the
only thread that synchronizes. No worker wavefronts are modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator

from repro.errors import ConfigError


@dataclass
class ResourceProfile:
    """Per-kernel register/LDS usage, drives the WG context size (Fig 5)."""

    vgprs_per_wi: int = 16
    sgprs_per_wavefront: int = 64
    lds_bytes: int = 0

    def context_bytes(self, wis: int) -> int:
        """Architectural context of a one-wavefront WG of ``wis``
        work-items: vector + scalar registers + LDS."""
        vec = self.vgprs_per_wi * 4 * wis
        return vec + self.sgprs_per_wavefront * 4 + self.lds_bytes


@dataclass
class Kernel:
    """A GPU kernel: a grid of WGs running a coroutine body."""

    name: str
    body: Callable[..., Generator]
    grid_wgs: int
    wis_per_wavefront: int = 64
    resources: ResourceProfile = field(default_factory=ResourceProfile)
    args: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.grid_wgs < 1:
            raise ConfigError(f"kernel {self.name}: grid_wgs must be >= 1")

    def context_bytes(self) -> int:
        return self.resources.context_bytes(self.wis_per_wavefront)


@dataclass
class KernelLaunch:
    """Handle returned by :meth:`repro.gpu.gpu.GPU.launch`."""

    kernel: Kernel
    wg_ids: list
    launched_at: int
