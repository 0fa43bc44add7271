"""The benchmark registry: Table 2 in executable form.

Each :class:`BenchmarkSpec` records the paper's characterization row
(granularity, number of sync variables, conditions per variable, waiters
per condition, updates until a condition is met), the kernel resource
profile that drives the Figure 5 context size, and a builder that
instantiates the kernel for a given GPU. ``build_benchmark`` is the one
entry point the experiments and tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.gpu.kernel import Kernel, ResourceProfile
from repro.sync.barrier import AtomicTreeBarrier, LFTreeBarrier
from repro.sync.mutex import FAMutex, SleepMutex, SpinMutex
from repro.workloads.heterosync import (
    make_barrier_body,
    make_mutex_body,
    make_racy_mutex_body,
    make_worker_body,
    validate_barrier_run,
    validate_mutex_run,
)
from repro.sync.roles import SyncProtocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.gpu import GPU


@dataclass(frozen=True)
class BenchmarkParams:
    """Scale knobs; defaults sized so the whole suite runs in minutes.

    The defaults fill the default machine exactly (64 WGs = 8 CUs × 8
    resident WGs), the paper's non-oversubscribed setup."""

    total_wgs: int = 64
    wgs_per_group: int = 8
    iterations: int = 3
    work_cycles: int = 400
    cs_cycles: int = 150
    episodes: int = 6
    #: wavefronts per WG; > 1 adds worker wavefronts joining syncthreads
    #: each iteration (the master-thread idiom of the paper's Figure 10)
    wavefronts_per_wg: int = 1


@dataclass(frozen=True)
class Table2Row:
    """The paper's Table 2 characterization of one benchmark."""

    granularity: str  # WIs per sync var
    sync_vars: str
    conds_per_var: str
    waiters_per_cond: str
    updates_until_met: str


@dataclass
class BenchmarkSpec:
    abbrev: str
    full_name: str
    description: str
    category: str  # "mutex" | "barrier"
    scope: str  # "G" | "L" | "LG"
    builder: Callable
    resources: ResourceProfile
    table2: Table2Row
    #: Figure 7 only covers the benchmarks modified to use s_sleep backoff
    supports_sleep: bool = False
    #: static synchronization structure for the progress analyzer
    #: (None for stress drills, which are not analyzable workloads)
    protocol: Optional[SyncProtocol] = None


def _mutex_builder(mutex_factory: Callable, local_scope: bool):
    """Builder for mutex benchmarks: one mutex grid-wide (global scope)
    or one per group (local scope)."""

    def build(spec: BenchmarkSpec, gpu: "GPU", params: BenchmarkParams) -> Kernel:
        if local_scope:
            if params.total_wgs % params.wgs_per_group:
                raise ConfigError("total_wgs must be a multiple of wgs_per_group")
            num_groups = params.total_wgs // params.wgs_per_group
            group_of = lambda wg: wg // params.wgs_per_group  # noqa: E731
            members = [params.wgs_per_group] * num_groups
        else:
            num_groups = 1
            group_of = lambda wg: 0  # noqa: E731
            members = [params.total_wgs]
        mutexes = [mutex_factory(gpu, params) for _ in range(num_groups)]
        # Shared data lives in the mutex's contended cache line, as
        # HeteroSync keeps lock and protected data adjacent — baseline
        # spin traffic therefore delays the critical section's own
        # accesses, a key contributor to busy-waiting's cost (§IV.C).
        data_addrs = [m.home_addr + 8 for m in mutexes]
        multi = params.wavefronts_per_wg > 1
        body = make_mutex_body(
            mutexes, group_of, data_addrs,
            params.iterations, params.work_cycles, params.cs_cycles,
            multi_wavefront=multi,
        )

        def validate(g: "GPU") -> None:
            validate_mutex_run(g, data_addrs, members, params.iterations)

        return Kernel(
            name=spec.abbrev,
            body=body,
            grid_wgs=params.total_wgs,
            wavefronts_per_wg=params.wavefronts_per_wg,
            worker_body=(
                make_worker_body(params.iterations, params.work_cycles)
                if multi else None
            ),
            resources=spec.resources,
            args={
                "mutexes": mutexes,
                "data_addrs": data_addrs,
                "validate": validate,
                "params": params,
            },
        )

    return build


def _barrier_builder(barrier_factory: Callable):
    def build(spec: BenchmarkSpec, gpu: "GPU", params: BenchmarkParams) -> Kernel:
        barrier = barrier_factory(gpu, params)
        episode_addrs = gpu.alloc_sync_vars(params.total_wgs)
        multi = params.wavefronts_per_wg > 1
        body = make_barrier_body(
            barrier, params.episodes, params.work_cycles,
            episode_addrs, multi_wavefront=multi,
        )

        def validate(g: "GPU") -> None:
            validate_barrier_run(g, episode_addrs, params.episodes)

        return Kernel(
            name=spec.abbrev,
            body=body,
            grid_wgs=params.total_wgs,
            wavefronts_per_wg=params.wavefronts_per_wg,
            worker_body=(
                make_worker_body(params.episodes, params.work_cycles)
                if multi else None
            ),
            resources=spec.resources,
            args={
                "barrier": barrier,
                "episode_addrs": episode_addrs,
                "validate": validate,
                "params": params,
            },
        )

    return build


# -- mutex factories ---------------------------------------------------------

def _spin(gpu, params):
    return SpinMutex(gpu)


def _spin_backoff(gpu, params):
    return SpinMutex(gpu, backoff=True)


def _ticket(gpu, params):
    return FAMutex(gpu)


def _sleep_mutex(gpu, params):
    return SleepMutex(gpu, queue_slots=params.total_wgs + 2)


# -- barrier factories ---------------------------------------------------------

def _tree_barrier(exchange: bool):
    def make(gpu, params):
        return AtomicTreeBarrier(
            gpu, params.total_wgs, params.wgs_per_group, exchange=exchange
        )

    return make


def _lf_tree_barrier(exchange: bool):
    def make(gpu, params):
        return LFTreeBarrier(
            gpu, params.total_wgs, params.wgs_per_group, exchange=exchange
        )

    return make


# ---------------------------------------------------------------------------
# the registry (Table 2, plus the SPMBO rows of Figures 14/15)
# ---------------------------------------------------------------------------

def _profile(vgprs: int, sgprs: int, lds: int) -> ResourceProfile:
    return ResourceProfile(
        vgprs_per_wi=vgprs, sgprs_per_wavefront=sgprs, lds_bytes=lds
    )


BENCHMARKS: Dict[str, BenchmarkSpec] = {}


def _register(spec: BenchmarkSpec) -> None:
    if spec.abbrev in BENCHMARKS:
        raise ConfigError(f"duplicate benchmark {spec.abbrev}")
    BENCHMARKS[spec.abbrev] = spec


_register(BenchmarkSpec(
    abbrev="SPM_G", full_name="SpinMutex",
    description="Test-and-set lock, global scope",
    category="mutex", scope="G",
    builder=_mutex_builder(_spin, local_scope=False),
    resources=_profile(7, 64, 0),  # ~2.0 KB context
    table2=Table2Row("n", "1", "1", "G", "2"),
    supports_sleep=True,
    protocol=SyncProtocol("SpinMutex"),
))
_register(BenchmarkSpec(
    abbrev="SPMBO_G", full_name="SpinMutexBackoff",
    description="Test-and-set lock with software exponential backoff",
    category="mutex", scope="G",
    builder=_mutex_builder(_spin_backoff, local_scope=False),
    resources=_profile(9, 64, 0),  # ~2.5 KB
    table2=Table2Row("n", "1", "1", "G", "2"),
    protocol=SyncProtocol("SpinMutex"),
))
_register(BenchmarkSpec(
    abbrev="FAM_G", full_name="FAMutex",
    description="Centralized ticket lock",
    category="mutex", scope="G",
    builder=_mutex_builder(_ticket, local_scope=False),
    resources=_profile(11, 80, 0),  # ~3 KB
    table2=Table2Row("n", "1", "G", "1", "1"),
    supports_sleep=True,
    protocol=SyncProtocol("FAMutex"),
))
_register(BenchmarkSpec(
    abbrev="SLM_G", full_name="SleepMutex",
    description="Decentralized ticket lock (Figure 10)",
    category="mutex", scope="G",
    builder=_mutex_builder(_sleep_mutex, local_scope=False),
    resources=_profile(15, 96, 0),  # ~4 KB
    table2=Table2Row("n", "G", "1", "1", "1"),
    protocol=SyncProtocol("SleepMutex", decentralized=True),
))
_register(BenchmarkSpec(
    abbrev="SPM_L", full_name="SpinMutexLocal",
    description="Test-and-set lock, local (per-group) scope",
    category="mutex", scope="L",
    builder=_mutex_builder(_spin, local_scope=True),
    resources=_profile(7, 64, 256),
    table2=Table2Row("n", "G/L", "1", "L", "2"),
    supports_sleep=True,
    protocol=SyncProtocol("SpinMutex"),
))
_register(BenchmarkSpec(
    abbrev="SPMBO_L", full_name="SpinMutexBackoffLocal",
    description="Local-scope test-and-set lock with software backoff",
    category="mutex", scope="L",
    builder=_mutex_builder(_spin_backoff, local_scope=True),
    resources=_profile(9, 64, 256),
    table2=Table2Row("n", "G/L", "1", "L", "2"),
    protocol=SyncProtocol("SpinMutex"),
))
_register(BenchmarkSpec(
    abbrev="FAM_L", full_name="FAMutexLocal",
    description="Centralized ticket lock, local scope",
    category="mutex", scope="L",
    builder=_mutex_builder(_ticket, local_scope=True),
    resources=_profile(11, 80, 256),
    table2=Table2Row("n", "G/L", "L", "1", "1"),
    supports_sleep=True,
    protocol=SyncProtocol("FAMutex"),
))
_register(BenchmarkSpec(
    abbrev="SLM_L", full_name="SleepMutexLocal",
    description="Decentralized ticket lock, local scope",
    category="mutex", scope="L",
    builder=_mutex_builder(_sleep_mutex, local_scope=True),
    resources=_profile(15, 96, 256),
    table2=Table2Row("n", "G", "1", "1", "1"),
    protocol=SyncProtocol("SleepMutex", decentralized=True),
))
_register(BenchmarkSpec(
    abbrev="TB_LG", full_name="AtomicTreeBarr",
    description="Two-level tree barrier (centralized counters)",
    category="barrier", scope="LG",
    builder=_barrier_builder(_tree_barrier(exchange=False)),
    resources=_profile(22, 96, 512),  # ~6 KB
    table2=Table2Row("n", "G/L", "1", "L", "L"),
    supports_sleep=True,
    protocol=SyncProtocol("AtomicTreeBarrier"),
))
_register(BenchmarkSpec(
    abbrev="LFTB_LG", full_name="LFTreeBarr",
    description="Decentralized two-level tree barrier (lock-free)",
    category="barrier", scope="LG",
    builder=_barrier_builder(_lf_tree_barrier(exchange=False)),
    resources=_profile(26, 96, 512),  # ~7 KB
    table2=Table2Row("n", "G", "1", "1", "1"),
    protocol=SyncProtocol("LFTreeBarrier", decentralized=True),
))
_register(BenchmarkSpec(
    abbrev="TBEX_LG", full_name="AtomicTreeBarrLocalExch",
    description="Two-level tree barrier with LDS exchange",
    category="barrier", scope="LG",
    builder=_barrier_builder(_tree_barrier(exchange=True)),
    resources=_profile(34, 128, 1024),  # ~10 KB
    table2=Table2Row("n", "G/L", "1", "L", "L"),
    supports_sleep=True,
    protocol=SyncProtocol("AtomicTreeBarrier"),
))
_register(BenchmarkSpec(
    abbrev="LFTBEX_LG", full_name="LFTreeBarrLocalExch",
    description="Decentralized two-level tree barrier with LDS exchange",
    category="barrier", scope="LG",
    builder=_barrier_builder(_lf_tree_barrier(exchange=True)),
    resources=_profile(30, 128, 1024),  # ~9 KB
    table2=Table2Row("n", "G", "1", "1", "1"),
    protocol=SyncProtocol("LFTreeBarrier", decentralized=True),
))


# ---------------------------------------------------------------------------
# stress drill (the sanitizer's positive fixture, not a paper workload)
# ---------------------------------------------------------------------------
# The drill lives outside BENCHMARKS: figure code iterates BENCHMARKS and
# builds every entry, and a racy kernel must never run there. It still
# resolves through get_spec/build_benchmark in any process, so
# `run _RACY --sanitize` and sweeps can name it.

def _racy_builder(spec: BenchmarkSpec, gpu: "GPU", params: BenchmarkParams) -> Kernel:
    mutexes = [SpinMutex(gpu)]
    data_addrs = [mutexes[0].home_addr + 8]
    body = make_racy_mutex_body(
        mutexes, data_addrs,
        params.iterations, params.work_cycles, params.cs_cycles,
    )

    def validate(g: "GPU") -> None:
        # Updates may be lost (that is the point); only sanity-check that
        # the counter moved and never exceeded the race-free total.
        value = g.store.read(data_addrs[0])
        if not 1 <= value <= params.total_wgs * params.iterations:
            raise AssertionError(f"_RACY counter out of range: {value}")

    return Kernel(
        name=spec.abbrev,
        body=body,
        grid_wgs=params.total_wgs,
        wavefronts_per_wg=1,
        resources=spec.resources,
        args={
            "mutexes": mutexes,
            "data_addrs": data_addrs,
            "validate": validate,
            "params": params,
        },
    )


_STRESS_DRILLS = {"_RACY": BenchmarkSpec(
    abbrev="_RACY", full_name="StressRacyMutex",
    description="every 4th WG bypasses the lock; sanitizer positive fixture",
    category="stress", scope="G",
    builder=_racy_builder,
    resources=_profile(7, 64, 0),
    table2=Table2Row("-", "-", "-", "-", "-"),
)}


def benchmark_names(category: Optional[str] = None) -> List[str]:
    """Registered benchmark abbreviations, in Table 2 / figure order.

    The stress drill is excluded: it is a test fixture, not a
    workload."""
    return [
        name for name, spec in BENCHMARKS.items()
        if category is None or spec.category == category
    ]


def get_spec(name: str) -> BenchmarkSpec:
    if name in BENCHMARKS:
        return BENCHMARKS[name]
    if name in _STRESS_DRILLS:
        return _STRESS_DRILLS[name]
    raise ConfigError(f"unknown benchmark {name!r}; known: {list(BENCHMARKS)}")


def build_benchmark(
    name: str,
    gpu: "GPU",
    params: Optional[BenchmarkParams] = None,
    **overrides,
) -> Kernel:
    """Instantiate benchmark ``name`` on ``gpu``.

    Keyword overrides update the default :class:`BenchmarkParams`, e.g.
    ``build_benchmark("SPM_G", gpu, total_wgs=64, iterations=2)``."""
    spec = get_spec(name)
    params = replace(params or BenchmarkParams(), **overrides)
    return spec.builder(spec, gpu, params)
