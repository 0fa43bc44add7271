"""GPU execution-model substrate.

Models the hierarchy of GPU execution abstractions the paper builds on:
kernels are split into work-groups (WGs), WGs into wavefronts, and
wavefronts execute device operations (compute, loads/stores, atomics,
sleeps, local barriers) as coroutines. A dispatcher packs WGs onto
compute units; the command processor performs the slow operations
(context switches, Monitor Log parsing) off the critical path.
"""

from repro.gpu.config import GPUConfig
from repro.gpu.cooperative import CooperativeLaunch, launch_cooperative
from repro.gpu.gpu import GPU, RunResult
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.kernel_scheduler import PriorityKernelScheduler
from repro.gpu.preemption import ResourceLossEvent, ResourceRestoreEvent
from repro.gpu.workgroup import WGState

__all__ = [
    "CooperativeLaunch",
    "GPU",
    "GPUConfig",
    "Kernel",
    "KernelLaunch",
    "PriorityKernelScheduler",
    "ResourceLossEvent",
    "ResourceRestoreEvent",
    "RunResult",
    "WGState",
    "launch_cooperative",
]
