"""GPU machine configuration (the paper's Table 1 baseline model).

All timing is in core clock cycles at ``clock_ghz``. The Table 1 machine:
8 CUs, each with 2 SIMD units of width 64 and 20 wavefront slots per SIMD;
32 KB 16-way L1 per CU (30 cycles); 512 KB 16-way shared L2 (50 cycles);
one 32 KB 8-way instruction cache and one 16 KB 8-way scalar cache per
4 CUs (4 cycles); DDR3 DRAM with 4 channels at 1 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.trace.config import TraceConfig


@dataclass
class GPUConfig:
    """Machine + mechanism parameters for one simulation."""

    # -- Table 1: compute ------------------------------------------------
    clock_ghz: float = 2.0
    num_cus: int = 8
    simds_per_cu: int = 2
    simd_width: int = 64
    wavefronts_per_simd: int = 20

    # -- Table 1: memory hierarchy (64 B blocks) -------------------------
    block_bytes: int = 64
    icache_size: int = 32 * 1024
    icache_assoc: int = 8
    icache_latency: int = 4
    scalar_cache_size: int = 16 * 1024
    scalar_cache_assoc: int = 8
    scalar_cache_latency: int = 4
    l1_size: int = 32 * 1024
    l1_assoc: int = 16
    l1_latency: int = 30
    l2_size: int = 512 * 1024
    l2_assoc: int = 16
    l2_latency: int = 50
    dram_channels: int = 4
    dram_latency: int = 160  # core cycles from L2 miss to data
    dram_service: int = 16  # bank/channel occupancy per 64 B block

    # -- derived service times (bank occupancy models contention) --------
    l2_banks: int = 8
    #: an atomic is a read-modify-write at the L2 and holds its bank for
    #: roughly the L2 latency — this is what makes busy-wait spin traffic
    #: serialize behind itself and starve the lock holder (§IV.C)
    l2_atomic_service: int = 48
    l2_load_service: int = 4
    l2_store_service: int = 4
    issue_cycles: int = 4  # SIMD issue occupancy per device op
    #: long compute bursts re-check for preemption every quantum
    #: (instruction-granularity interruptibility)
    compute_quantum: int = 2_000

    # -- WG scheduling ----------------------------------------------------
    #: WGs resident per CU (occupancy); oversubscription means the grid
    #: has more WGs than num_cus * max_wgs_per_cu can hold at once.
    max_wgs_per_cu: int = 8
    #: fixed overhead (drain + scheduling) per context switch direction
    context_switch_overhead: int = 500
    #: notification latency SyncMon -> dispatcher -> CU
    resume_latency: int = 100

    # -- AWG hardware structures (paper §V.C) ------------------------------
    syncmon_sets: int = 256
    syncmon_assoc: int = 4  # 1024 waiting conditions total
    waiting_wg_list_size: int = 512
    bloom_filter_count: int = 512
    bloom_bits: int = 24
    bloom_hashes: int = 6
    monitor_log_entries: int = 1024
    #: CP firmware: period between Monitor Log parses / spilled-condition checks
    cp_check_interval: int = 2_000
    cp_check_cost: int = 200  # CP occupancy per spilled-condition sweep

    # -- waiting (a policy's own timers live in its PolicySpec) ---------------
    #: software exponential backoff cap for SPMBO's backoff under
    #: policies without one (Baseline)
    sleep_backoff_max: int = 16_000
    #: retry delay when the Monitor Log is full (Mesa busy retry)
    log_full_retry: int = 200

    # -- run control ----------------------------------------------------------
    max_cycles: int = 50_000_000
    deadlock_window: int = 400_000
    #: consecutive watchdog windows with progress events but no condition
    #: advancement before declaring livelock (0 disables the check)
    livelock_windows: int = 8
    seed: int = 1
    #: structured event tracing (:mod:`repro.trace`): category filters +
    #: bounded ring buffer; None disables tracing entirely (zero cost)
    trace: Optional[TraceConfig] = None
    #: deterministic fault-injection schedule (see :mod:`repro.faults`);
    #: None runs fault-free
    fault_plan: Optional[FaultPlan] = None
    #: attach the dynamic sync sanitizer (:mod:`repro.analysis.sanitizer`)
    #: to the memory hierarchy; adds shadow-state bookkeeping per access
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.num_cus < 1:
            raise ConfigError("num_cus must be >= 1")
        if self.max_wgs_per_cu < 1:
            raise ConfigError("max_wgs_per_cu must be >= 1")
        if self.l2_banks < 1:
            raise ConfigError("l2_banks must be >= 1")
        if self.syncmon_sets & (self.syncmon_sets - 1):
            raise ConfigError("syncmon_sets must be a power of two")

    # -- derived quantities ---------------------------------------------------
    @property
    def wg_capacity(self) -> int:
        """Total WGs the GPU can hold resident."""
        return self.num_cus * self.max_wgs_per_cu

    @property
    def syncmon_conditions(self) -> int:
        return self.syncmon_sets * self.syncmon_assoc

    def cycles(self, microseconds: float) -> int:
        """Convert wall time to core cycles."""
        return int(microseconds * self.clock_ghz * 1_000)

    def microseconds(self, cycles: int) -> float:
        return cycles / (self.clock_ghz * 1_000)

    def with_overrides(self, **kwargs) -> "GPUConfig":
        """Functional update; used by experiment sweeps."""
        return replace(self, **kwargs)

    def describe(self) -> Dict[str, str]:
        """Human-readable Table 1 rendition."""
        return {
            "Compute Units": f"{self.num_cus}",
            "Clock": f"{self.clock_ghz} GHz",
            "SIMD units / CU": f"{self.simds_per_cu}",
            "SIMD width": f"{self.simd_width}",
            "Wavefronts per SIMD": f"{self.wavefronts_per_simd}",
            "Instruction Cache / 4 CUs": (
                f"{self.icache_size // 1024} KB, {self.icache_assoc}-way, "
                f"{self.icache_latency} cycles"
            ),
            "Scalar Cache / 4 CUs": (
                f"{self.scalar_cache_size // 1024} KB, {self.scalar_cache_assoc}-way, "
                f"{self.scalar_cache_latency} cycles"
            ),
            "L1 cache / CU": (
                f"{self.l1_size // 1024} KB, {self.l1_assoc}-way, "
                f"{self.l1_latency} cycles"
            ),
            "L2 cache shared": (
                f"{self.l2_size // 1024} KB, {self.l2_assoc}-way, "
                f"{self.l2_latency} cycles"
            ),
            "DRAM": f"DDR3, {self.dram_channels} Channels, 1 GHz",
            "Block size": f"{self.block_bytes} B",
        }
