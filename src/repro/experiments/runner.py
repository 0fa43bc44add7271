"""Shared experiment runner: benchmark × policy × scenario → RunResult."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from repro.core.policies import PolicySpec
from repro.faults.plan import FaultPlan
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU, RunResult
from repro.gpu.preemption import ResourceLossEvent
from repro.workloads.registry import BenchmarkParams, build_benchmark


@dataclass(frozen=True)
class Scenario:
    """One experimental setup (machine occupancy + workload scale)."""

    label: str
    total_wgs: int
    wgs_per_group: int
    max_wgs_per_cu: int
    iterations: int
    episodes: int
    #: inject the §VI resource-loss event at this time (None = never)
    resource_loss_at_us: Optional[float] = None
    deadlock_window: int = 300_000
    seed: int = 1
    #: deterministic fault-injection schedule (None = fault-free)
    fault_plan: Optional[FaultPlan] = None

    def params(self) -> BenchmarkParams:
        return BenchmarkParams(
            total_wgs=self.total_wgs,
            wgs_per_group=self.wgs_per_group,
            iterations=self.iterations,
            episodes=self.episodes,
        )

    def config(self, **overrides) -> GPUConfig:
        """The machine for this scenario. ``overrides`` set other
        :class:`GPUConfig` fields; naming one the scenario owns raises
        ``TypeError`` (set it on the scenario instead)."""
        return GPUConfig(
            max_wgs_per_cu=self.max_wgs_per_cu,
            deadlock_window=self.deadlock_window,
            seed=self.seed,
            fault_plan=self.fault_plan,
            **overrides,
        )

    def scaled(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)

    # -- canonical serialization (cache keys / repro bundles) ----------
    def spec(self) -> Dict[str, Any]:
        """JSON-serializable dict that fully determines this scenario."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "fault_plan"}
        out["fault_plan"] = (
            self.fault_plan.spec() if self.fault_plan is not None else None)
        return out

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "Scenario":
        """Inverse of :meth:`spec` (replay bundles, resumed sweeps)."""
        kwargs = dict(spec)
        plan = kwargs.get("fault_plan")
        kwargs["fault_plan"] = (
            FaultPlan.from_spec(plan) if plan is not None else None)
        return cls(**kwargs)


#: The paper's §VI non-oversubscribed experiment: the grid exactly fills
#: the GPU (128 WGs = 8 CUs × 16 resident WGs on our model).
PAPER_SCALE = Scenario(
    label="non-oversubscribed",
    total_wgs=128,
    wgs_per_group=16,
    max_wgs_per_cu=16,
    iterations=3,
    episodes=6,
)

#: The committed scale of the interval and policy sweeps (Figures 7, 8,
#: 9, 11 and the SyncMon, Monitor Log and resume ablations): half the
#: paper's grid, 8 resident WGs per CU, shorter runs.
SWEEP_SCALE = PAPER_SCALE.scaled(
    total_wgs=64, wgs_per_group=8, max_wgs_per_cu=8,
    iterations=2, episodes=4,
)

#: The §VI oversubscribed experiment: same grid, but one CU's WGs are
#: forcibly context-switched out mid-run (the paper does this at 50 µs;
#: we scale the workload up and trigger at 25 µs so the loss lands inside
#: even the fastest policy's run).
OVERSUBSCRIBED = Scenario(
    label="oversubscribed",
    total_wgs=128,
    wgs_per_group=16,
    max_wgs_per_cu=16,
    iterations=4,
    episodes=12,
    resource_loss_at_us=25.0,
)

#: A small configuration for unit/integration tests and smoke runs.
QUICK_SCALE = Scenario(
    label="quick",
    total_wgs=32,
    wgs_per_group=4,
    max_wgs_per_cu=4,
    iterations=2,
    episodes=3,
    deadlock_window=200_000,
)

#: the oversubscribed experiment at ``QUICK_SCALE``'s machine size (what
#: ``--quick`` runs Figures 13 and 15 and ``run --oversubscribed`` at)
QUICK_OVERSUBSCRIBED = OVERSUBSCRIBED.scaled(
    total_wgs=32, wgs_per_group=4, max_wgs_per_cu=4,
    iterations=3, episodes=6, resource_loss_at_us=10.0,
    label="quick-oversubscribed",
)


def run_benchmark(
    name: str,
    policy: PolicySpec,
    scenario: Scenario = PAPER_SCALE,
    validate: bool = True,
    keep_gpu: bool = False,
    config_overrides: Optional[Dict] = None,
) -> RunResult:
    """Simulate one benchmark under one policy in one scenario.

    Validates final memory state (mutual exclusion / barrier completion)
    for completed runs unless ``validate=False``."""
    gpu = GPU(scenario.config(**(config_overrides or {})), policy)
    kernel = build_benchmark(name, gpu, params=scenario.params())
    if scenario.resource_loss_at_us is not None:
        ResourceLossEvent(at_us=scenario.resource_loss_at_us).schedule(gpu)
    gpu.launch(kernel)
    result = gpu.run()
    if result.ok and validate:
        kernel.args["validate"](gpu)
    result.scenario = scenario.label
    if gpu.tracer is not None:
        result.trace = gpu.tracer.export_chrome(
            label=f"{name}/{policy.name}/{scenario.label}"
        )
    if keep_gpu:
        result.gpu = gpu
    return result
