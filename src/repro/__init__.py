"""repro — a reproduction of "Independent Forward Progress of
Work-groups" (ISCA 2020).

The package implements, from scratch in Python:

- a discrete-event GPU simulator (compute units, work-group coroutines,
  write-through L1s, a banked shared L2 that performs all atomics, DRAM);
- the paper's contribution, Autonomous Work-Groups (AWG): waiting atomic
  instructions, the SyncMon at the L2, the Monitor Log virtualization
  interface, Bloom-filter resume prediction and stall-time prediction,
  plus the whole family of alternative policies (Baseline, Sleep,
  Timeout, MonRS-All, MonR-All, MonNR-All, MonNR-One, MinResume);
- the HeteroSync-style inter-WG synchronization benchmark suite; and
- an experiment harness regenerating every table and figure of the
  paper's evaluation.

Quickstart::

    from repro import GPU, GPUConfig, awg
    from repro.workloads import build_benchmark

    gpu = GPU(GPUConfig(), awg())
    kernel = build_benchmark("SPM_G", gpu, total_wgs=16)
    gpu.launch(kernel)
    outcome = gpu.run()
    print(outcome.cycles, outcome.ok)
"""

from repro.core import (
    awg,
    baseline,
    minresume,
    monnr_all,
    monnr_one,
    monr_all,
    monrs_all,
    named_policy,
    sleep,
    timeout,
)
from repro.core.policies import PolicySpec
from repro.errors import ConfigError, ReproError, SimulationError
from repro.gpu import GPU, GPUConfig, Kernel, ResourceLossEvent, RunResult

__version__ = "1.0.0"

__all__ = [
    "GPU",
    "GPUConfig",
    "Kernel",
    "PolicySpec",
    "ResourceLossEvent",
    "RunResult",
    "ConfigError",
    "ReproError",
    "SimulationError",
    "awg",
    "baseline",
    "minresume",
    "monnr_all",
    "monnr_one",
    "monr_all",
    "monrs_all",
    "named_policy",
    "sleep",
    "timeout",
    "__version__",
]
