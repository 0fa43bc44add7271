"""Wavefronts: the coroutine carriers of kernel execution.

The master wavefront (wf 0) runs the kernel ``body``; additional
wavefronts run ``worker_body`` when the kernel provides one. Following
the master-thread idiom of the paper's Figure 10 kernels, only the master
touches synchronization variables; workers compute and join
``syncthreads``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.gpu.device_api import WavefrontCtx
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu import GPU
    from repro.gpu.workgroup import WorkGroup
    from repro.sim.resources import FifoResource


class Wavefront:
    """One wavefront of a WG; wraps a kernel generator in a Process."""

    def __init__(self, gpu: "GPU", wg: "WorkGroup", wf_id: int) -> None:
        self.gpu = gpu
        self.wg = wg
        self.wf_id = wf_id
        self.process: Optional[Process] = None
        self.ctx: Optional[WavefrontCtx] = None

    @property
    def is_master(self) -> bool:
        return self.wf_id == 0

    def start(self, simd: "FifoResource") -> Process:
        """Instantiate the kernel generator and launch it as a process."""
        kernel = self.wg.kernel
        self.ctx = WavefrontCtx(self.gpu, self.wg, self.wf_id, simd)
        if self.is_master:
            gen = kernel.body(self.ctx)
        else:
            assert kernel.worker_body is not None
            gen = kernel.worker_body(self.ctx)
        self.process = Process(
            self.gpu.env, gen, name=f"{kernel.name}.wg{self.wg.wg_id}.wf{self.wf_id}"
        )
        # the generator has not run yet: its first op finds this bound
        self.ctx._resume = self.process._resume
        return self.process
