"""Compute Units: SIMD issue ports plus WG residency slots."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from repro.errors import SimulationError
from repro.sim.resources import FifoResource

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.config import GPUConfig
    from repro.gpu.workgroup import WorkGroup
    from repro.sim.engine import Engine


class ComputeUnit:
    """One CU: ``simds_per_cu`` issue ports and ``max_wgs_per_cu`` WG slots.

    Device operations occupy a SIMD issue port for a few cycles, so
    co-resident wavefronts interfere realistically; WG residency is the
    resource that oversubscription exhausts.
    """

    def __init__(self, env: "Engine", config: "GPUConfig", cu_id: int) -> None:
        self.env = env
        self.config = config
        self.cu_id = cu_id
        self.enabled = True
        self.capacity = config.max_wgs_per_cu
        self.resident: Set["WorkGroup"] = set()
        self.simds: List[FifoResource] = [
            FifoResource(env, f"cu{cu_id}.simd{i}")
            for i in range(config.simds_per_cu)
        ]
        self._next_simd = 0

    @property
    def free_slots(self) -> int:
        if not self.enabled:
            return 0
        return self.capacity - len(self.resident)

    def has_slot(self) -> bool:
        return self.free_slots > 0

    def allocate(self, wg: "WorkGroup") -> None:
        if not self.has_slot():
            raise SimulationError(f"CU{self.cu_id} has no free WG slot")
        self.resident.add(wg)

    def release(self, wg: "WorkGroup") -> None:
        if wg not in self.resident:
            raise SimulationError(
                f"CU{self.cu_id}: releasing WG{wg.wg_id} that is not resident"
            )
        self.resident.remove(wg)

    def pick_simd(self) -> FifoResource:
        """Round-robin SIMD assignment for a newly placed wavefront."""
        simd = self.simds[self._next_simd % len(self.simds)]
        self._next_simd += 1
        return simd

    def disable(self) -> None:
        """Take the CU away (kernel-scheduler preemption, §VI)."""
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True
