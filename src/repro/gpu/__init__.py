"""GPU execution-model substrate.

Models the hierarchy of GPU execution abstractions the paper builds on:
kernels are split into work-groups (WGs), and each WG executes device
operations (compute, loads/stores, atomics, sleeps, waits) as one
coroutine: the master thread of the paper's Figure 10 kernels, no
worker wavefronts. A dispatcher packs WGs onto
compute units; the command processor performs the slow operations
(context switches, Monitor Log parsing) off the critical path.
"""

from repro.gpu.config import GPUConfig
from repro.gpu.cooperative import CooperativeLaunch, launch_cooperative
from repro.gpu.gpu import GPU, RunResult
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.preemption import ResourceLossEvent, ResourceRestoreEvent
from repro.gpu.workgroup import WGState

__all__ = [
    "CooperativeLaunch",
    "GPU",
    "GPUConfig",
    "Kernel",
    "KernelLaunch",
    "ResourceLossEvent",
    "ResourceRestoreEvent",
    "RunResult",
    "WGState",
    "launch_cooperative",
]
