"""The family of cooperative WG scheduling policies (paper §IV, Figure 6).

A :class:`PolicySpec` is a declarative description of one policy; the
device API, SyncMon and dispatcher all consult it. The nine policies
evaluated in the paper are provided as factory functions so experiment
code reads like the paper:

========== ================= ============ ========= =====================
policy      wait mechanism    notify mode  resume    context switch
========== ================= ============ ========= =====================
Baseline    busy-wait         none         —         never (deadlocks)
Sleep       exp. backoff      none         —         never (deadlocks)
Timeout     waiting atomic*   none         timer     if oversubscribed
MonRS-All   wait instruction  sporadic     all       if oversubscribed
MonR-All    wait instruction  condition    all       if oversubscribed
MonNR-All   waiting atomic    condition    all       if oversubscribed
MonNR-One   waiting atomic    condition    one       if oversubscribed
AWG         waiting atomic    condition    predicted after predicted stall
MinResume   waiting atomic    condition    oracle    if oversubscribed
========== ================= ============ ========= =====================

(*) Timeout uses the waiting-atomic comparison to learn that the sync
failed, but arms no monitor — it waits a fixed interval and retries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from repro.errors import ConfigError


class WaitMechanism(enum.Enum):
    """How a kernel waits for a synchronization condition."""

    BUSY = "busy"  # loop of plain atomics
    SLEEP_BACKOFF = "sleep"  # software exponential backoff with s_sleep
    WAIT_INSTR = "wait_instr"  # plain atomic + separate wait instruction
    WAITING_ATOMIC = "waiting_atomic"  # fused atomic+monitor-arm (§IV.D)


class NotifyMode(enum.Enum):
    """What the SyncMon does when a monitored address is touched."""

    NONE = "none"  # no monitor (Baseline/Sleep/Timeout)
    SPORADIC = "sporadic"  # any access notifies, no condition check (MonRS)
    CONDITION = "condition"  # condition checked on updates (MonR/MonNR/AWG)


class ResumeMode(enum.Enum):
    """How many waiters the SyncMon resumes when a condition is met."""

    NONE = "none"
    ALL = "all"
    ONE = "one"
    PREDICT = "predict"  # AWG Bloom-filter predictor
    ORACLE = "oracle"  # MinResume normalizer


@dataclass(frozen=True)
class PolicySpec:
    """Declarative description of one cooperative scheduling policy."""

    name: str
    mechanism: WaitMechanism
    notify: NotifyMode
    resume: ResumeMode
    #: can this policy context switch WGs out (i.e. provide IFP)?
    provides_ifp: bool
    #: fixed stall/switch interval (Timeout; also MonNR-One's straggler timer)
    timeout_interval: Optional[int] = None
    #: backstop timeout for monitor policies (races / mispredictions)
    backstop_timeout: Optional[int] = None
    #: software exponential backoff cap (Sleep policy / SPMBO kernels)
    backoff_max: Optional[int] = None
    backoff_min: int = 64
    #: AWG: stall for a predicted period before context switching
    predict_stall: bool = False
    #: stagger (cycles) between resumed waiters for the oracle policy
    oracle_stagger: int = 200

    def __post_init__(self) -> None:
        if self.mechanism is WaitMechanism.SLEEP_BACKOFF and not self.backoff_max:
            raise ConfigError(f"{self.name}: sleep policy needs backoff_max")
        if self.timeout_interval is not None and self.timeout_interval <= 0:
            raise ConfigError(f"{self.name}: timeout_interval must be positive")
        if (self.notify is NotifyMode.NONE and self.timeout_interval is None
                and self.mechanism in (WaitMechanism.WAIT_INSTR,
                                       WaitMechanism.WAITING_ATOMIC)):
            raise ConfigError(f"{self.name}: a hardware wait with no monitor "
                              "needs timeout_interval")

    @property
    def uses_monitor(self) -> bool:
        return self.notify is not NotifyMode.NONE

    @property
    def uses_waiting_atomics(self) -> bool:
        return self.mechanism is WaitMechanism.WAITING_ATOMIC

    @property
    def has_race_window(self) -> bool:
        """Wait-instruction policies have the §IV.C window of vulnerability."""
        return self.mechanism is WaitMechanism.WAIT_INSTR

    def with_overrides(self, **kwargs) -> "PolicySpec":
        return replace(self, **kwargs)

    # -- canonical serialization (cache keys / repro bundles) ----------
    def spec(self) -> Dict[str, Any]:
        """JSON-serializable dict that fully determines this policy."""
        return {
            f.name: (v.value if isinstance(v := getattr(self, f.name),
                                           enum.Enum) else v)
            for f in fields(self)
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "PolicySpec":
        """Inverse of :meth:`spec` (replay bundles, resumed sweeps)."""
        kwargs = dict(spec)
        kwargs["mechanism"] = WaitMechanism(kwargs["mechanism"])
        kwargs["notify"] = NotifyMode(kwargs["notify"])
        kwargs["resume"] = ResumeMode(kwargs["resume"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# Factories for the paper's nine policies
# ---------------------------------------------------------------------------

def baseline() -> PolicySpec:
    """Software busy-waiting; deadlocks when oversubscribed (§IV.B)."""
    return PolicySpec(
        name="Baseline",
        mechanism=WaitMechanism.BUSY,
        notify=NotifyMode.NONE,
        resume=ResumeMode.NONE,
        provides_ifp=False,
    )


def sleep(backoff_max: int = 16_000, backoff_min: int = 64) -> PolicySpec:
    """Software exponential backoff with ``s_sleep`` (§IV.C.i, Fig 7)."""
    return PolicySpec(
        name=f"Sleep-{backoff_max // 1000}k" if backoff_max >= 1000 else "Sleep",
        mechanism=WaitMechanism.SLEEP_BACKOFF,
        notify=NotifyMode.NONE,
        resume=ResumeMode.NONE,
        provides_ifp=False,
        backoff_max=backoff_max,
        backoff_min=backoff_min,
    )


def timeout(interval: int = 20_000) -> PolicySpec:
    """Fixed-interval stall / context switch, no monitor (§IV.C.ii, Fig 8)."""
    return PolicySpec(
        name=f"Timeout-{interval // 1000}k" if interval >= 1000 else "Timeout",
        mechanism=WaitMechanism.WAITING_ATOMIC,
        notify=NotifyMode.NONE,
        resume=ResumeMode.NONE,
        provides_ifp=True,
        timeout_interval=interval,
    )


def monrs_all(backstop: int = 100_000) -> PolicySpec:
    """Monitor Race, Sporadic notification, resume All (§IV.C.iii)."""
    return PolicySpec(
        name="MonRS-All",
        mechanism=WaitMechanism.WAIT_INSTR,
        notify=NotifyMode.SPORADIC,
        resume=ResumeMode.ALL,
        provides_ifp=True,
        backstop_timeout=backstop,
    )


def monr_all(backstop: int = 100_000) -> PolicySpec:
    """Monitor Race, condition-checked notification, resume All (§IV.C.iv)."""
    return PolicySpec(
        name="MonR-All",
        mechanism=WaitMechanism.WAIT_INSTR,
        notify=NotifyMode.CONDITION,
        resume=ResumeMode.ALL,
        provides_ifp=True,
        backstop_timeout=backstop,
    )


def monnr_all(backstop: int = 100_000) -> PolicySpec:
    """Monitor No-Race (waiting atomics), resume All (§IV.D)."""
    return PolicySpec(
        name="MonNR-All",
        mechanism=WaitMechanism.WAITING_ATOMIC,
        notify=NotifyMode.CONDITION,
        resume=ResumeMode.ALL,
        provides_ifp=True,
        backstop_timeout=backstop,
    )


def monnr_one(straggler_timeout: int = 20_000, backstop: int = 100_000) -> PolicySpec:
    """Monitor No-Race, resume One per met update (§IV.E).

    Remaining waiters resume on later met updates or after the straggler
    timeout interval.
    """
    return PolicySpec(
        name="MonNR-One",
        mechanism=WaitMechanism.WAITING_ATOMIC,
        notify=NotifyMode.CONDITION,
        resume=ResumeMode.ONE,
        provides_ifp=True,
        timeout_interval=straggler_timeout,
        backstop_timeout=backstop,
    )


def awg(straggler_timeout: int = 20_000, backstop: int = 100_000) -> PolicySpec:
    """Autonomous Work-Groups: waiting atomics + predicted resume count +
    predicted stall period before context switching (§V).

    ``straggler_timeout`` bounds the cost of a resume-count
    misprediction: "If AWG's prediction is incorrect, eventually the
    stalled WGs will time out and be activated."""
    return PolicySpec(
        name="AWG",
        mechanism=WaitMechanism.WAITING_ATOMIC,
        notify=NotifyMode.CONDITION,
        resume=ResumeMode.PREDICT,
        provides_ifp=True,
        timeout_interval=straggler_timeout,
        backstop_timeout=backstop,
        predict_stall=True,
    )


def minresume(stagger: int = 200, backstop: int = 150_000) -> PolicySpec:
    """Oracular configuration that never resumes WGs unnecessarily (Fig 9
    normalizer): condition-checked, exact resume counts, retries spread
    out so resumed WGs do not contend. The backstop exists only so a WG
    stalled from before the GPU became oversubscribed eventually
    re-evaluates and yields its slot; it contributes essentially no
    atomics to the Figure 9 normalization."""
    return PolicySpec(
        name="MinResume",
        mechanism=WaitMechanism.WAITING_ATOMIC,
        notify=NotifyMode.CONDITION,
        resume=ResumeMode.ORACLE,
        provides_ifp=True,
        backstop_timeout=backstop,
        oracle_stagger=stagger,
    )


_FACTORIES = {
    "baseline": baseline,
    "sleep": sleep,
    "timeout": timeout,
    "monrs-all": monrs_all,
    "monr-all": monr_all,
    "monnr-all": monnr_all,
    "monnr-one": monnr_one,
    "awg": awg,
    "minresume": minresume,
}


def named_policy(name: str, **kwargs) -> PolicySpec:
    """Look up a policy factory by (case-insensitive) paper name."""
    key = name.lower()
    if key not in _FACTORIES:
        raise ConfigError(
            f"unknown policy {name!r}; known: {sorted(_FACTORIES)}"
        )
    return _FACTORIES[key](**kwargs)


def all_policy_names() -> Dict[str, str]:
    """Map of factory key to display name."""
    return {key: fac().name for key, fac in _FACTORIES.items()}
