"""Crash-consistency scenarios over the repo's two durable subsystems.

Each scenario drives one *production* durable-state writer (no mocks)
inside a scratch directory with the I/O gateway armed, takes the
recorded op log, enumerates the legal post-crash disk images
(:mod:`repro.durability.crashstates`), materializes each image, and
runs the *production* recovery path over it, asserting the subsystem's
durability invariants:

``cache``
    :class:`~repro.experiments.cache.ResultCache` puts → recovery is
    ``get`` + ``verify``. Invariants: ``get`` never raises and never
    returns a payload other than the one committed for its key (torn
    entries must self-heal to a miss); ``verify`` never raises.
``manifest``
    :class:`~repro.recovery.manifest.SweepCheckpoint` record/flush →
    recovery is ``SweepCheckpoint.open`` (resume). Invariants: resume
    never raises, adopts only cells that were recorded, and every
    adopted payload is bit-identical to the uninterrupted run's.

Campaigns re-run the same scenarios with a fault-injecting
:class:`~repro.durability.vfs.DurabilityPlan` armed: the production
degradation policies must hold (no exception escapes the workload
other than the documented ENOSPC-on-unmanaged-path case), every
enumerated crash state must still recover, and two runs of the same
``(plan, seed)`` must produce identical fault schedules, stats deltas
and outcomes — the bit-reproducibility contract.

A state that violates its invariants is materialized into a *repro
directory* (default ``.durability-repro/``) holding the disk image,
the ``crash-state.json`` provenance sidecar and the full op log, so CI
can upload the exact failing filesystem.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.durability import vfs
from repro.durability.crashstates import (
    CrashState, check_state_legal, enumerate_crash_states, materialize,
)
from repro.durability.vfs import (
    DurabilityPlan, IOGateway, armed, dump_oplog_jsonl,
    named_durability_plan,
)
from repro.experiments.runner import RunResult

#: golden-report schema version (tests/golden/durability/smoke.json)
DURABILITY_REPORT_VERSION = 1

#: scenario execution order (and the golden file's key order)
SCENARIOS = ("cache", "manifest")

#: fingerprint pinned for every scenario so keys/paths — and therefore
#: op logs and golden signatures — do not drift with unrelated source
#: edits. The stores only compare fingerprints for equality.
_FINGERPRINT = "durability-fixed"

_REPRO_DIR_ENV = "REPRO_DURABILITY_REPRO_DIR"


def default_repro_dir() -> Path:
    env = os.environ.get(_REPRO_DIR_ENV)
    return Path(env) if env else Path(".durability-repro")


def _sample_results() -> Dict[str, RunResult]:
    """Three fixed, fully deterministic results to persist (constant
    field values: payload bytes must not vary between runs)."""
    def mk(tag: str, cycles: int, deadlocked: bool) -> RunResult:
        return RunResult(
            benchmark=f"bench-{tag}", policy="awg", scenario="durability",
            cycles=cycles, completed=not deadlocked, deadlocked=deadlocked,
            reason="deadlock" if deadlocked else "completed",
            atomics=cycles // 10, waiting_atomics=1 if deadlocked else 0,
            context_switches=3, wg_running_cycles=cycles - 7,
            wg_waiting_cycles=7,
            stats={"sync.acquires": float(cycles % 13)},
            diagnosis={"kind": "deadlock"} if deadlocked else None)
    return {"a": mk("a", 100, False), "b": mk("b", 230, False),
            "c": mk("c", 310, True)}


# ---------------------------------------------------------------------------
# scenario workloads (run armed) + recovery checks (run disarmed)
# ---------------------------------------------------------------------------

def _cache_workload(root: Path) -> Dict[str, Any]:
    from repro.experiments.cache import ResultCache, result_to_payload

    cache = ResultCache(root, fingerprint=_FINGERPRINT)
    expected = {}
    for tag, result in _sample_results().items():
        key = cache.key_for({"cell": tag, "scenario": "durability"})
        cache.put(key, result)
        expected[key] = result_to_payload(result)
    return {"expected": expected, "dropped": cache.dropped,
            "degraded": cache.degraded}


def _cache_check(image: Path, context: Dict[str, Any]) -> List[str]:
    from repro.experiments.cache import ResultCache, result_to_payload

    problems = []
    cache = ResultCache(image, fingerprint=_FINGERPRINT)
    for key, payload in context["expected"].items():
        try:
            got = cache.get(key)
        except Exception as exc:  # noqa: BLE001 — any escape is the bug
            problems.append(f"cache.get({key[:10]}…) raised {exc!r}")
            continue
        if got is not None and result_to_payload(got) != payload:
            problems.append(
                f"cache adopted a corrupt/foreign payload for {key[:10]}…")
    try:
        report = cache.verify(quarantine=False)
    except Exception as exc:  # noqa: BLE001
        problems.append(f"cache.verify raised {exc!r}")
    else:
        # verify flagging torn entries is correct behavior; an entry it
        # calls intact must round-trip to the committed payload
        for key, payload in context["expected"].items():
            path = cache._path(key)
            if path.exists() and not any(
                    c["path"] == str(path) for c in report.corrupt):
                got = cache.get(key)
                if got is None or result_to_payload(got) != payload:
                    problems.append(
                        f"verify passed {key[:10]}… but get disagrees")
    return problems


def _manifest_specs() -> List[Dict[str, Any]]:
    return [{"cell": tag, "scenario": "durability"} for tag in "abc"]


def _manifest_workload(root: Path) -> Dict[str, Any]:
    from repro.experiments.cache import result_to_payload
    from repro.recovery.manifest import SweepCheckpoint, cell_key

    specs = _manifest_specs()
    ckpt = SweepCheckpoint.open(specs, root=root,
                                fingerprint=_FINGERPRINT, flush_interval=0)
    results = _sample_results()
    expected = {}
    # record two of three cells: the sweep is mid-flight, so complete()
    # force-flushes the final state instead of deleting the manifest
    for tag in ("a", "b"):
        key = cell_key(specs["abc".index(tag)])
        ckpt.record(key, results[tag])
        expected[key] = result_to_payload(results[tag])
    ckpt.complete()
    return {"expected": expected, "flush_failures": ckpt.flush_failures}


def _manifest_check(image: Path, context: Dict[str, Any]) -> List[str]:
    from repro.recovery.manifest import SweepCheckpoint

    problems = []
    try:
        ckpt = SweepCheckpoint.open(_manifest_specs(), root=image,
                                    fingerprint=_FINGERPRINT,
                                    flush_interval=0)
    except Exception as exc:  # noqa: BLE001
        return [f"manifest resume raised {exc!r}"]
    expected = context["expected"]
    for key, payload in ckpt.completed.items():
        if key not in expected:
            problems.append(f"resume adopted unrecorded cell {key[:10]}…")
        elif payload != expected[key]:
            problems.append(
                f"resumed payload for {key[:10]}… is not bit-identical "
                f"to the uninterrupted run's")
    return problems


_WORKLOADS: Dict[str, Tuple[Callable[[Path], Dict[str, Any]],
                            Callable[[Path, Dict[str, Any]], List[str]]]] = {
    "cache": (_cache_workload, _cache_check),
    "manifest": (_manifest_workload, _manifest_check),
}


# ---------------------------------------------------------------------------
# enumeration runs
# ---------------------------------------------------------------------------

@dataclass
class ScenarioReport:
    """One scenario's enumeration outcome."""

    name: str
    plan: str
    ops: int
    states: int
    #: hash of the (op, path, dest) sequence — deterministic across
    #: runs (payload bytes carry timestamps/pids and are excluded)
    op_signature: str
    #: states whose recovery violated an invariant
    violations: List[Dict[str, Any]] = field(default_factory=list)
    #: states the enumerator itself mis-derived (illegal per the model)
    illegal_states: List[str] = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations and not self.illegal_states

    def golden_entry(self) -> Dict[str, Any]:
        return {"ops": self.ops, "states": self.states,
                "op_signature": self.op_signature}


def _op_signature(gateway: IOGateway) -> str:
    digest = hashlib.sha256()
    for record in gateway.log:
        digest.update(f"{record.op}:{record.path}:{record.dest}:"
                      f"{record.fault or ''};".encode())
    return digest.hexdigest()[:16]


def run_scenario(name: str,
                 plan: Optional[DurabilityPlan] = None,
                 max_states: Optional[int] = None,
                 repro_dir: Optional[Path] = None,
                 log: Callable[[str], None] = lambda s: None,
                 ) -> ScenarioReport:
    """Record one scenario's op log, enumerate its crash states, and
    recover every one of them, collecting invariant violations."""
    workload, check = _WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=f"durability-{name}-") as td:
        scratch = Path(td)
        live = scratch / "live"
        live.mkdir()
        with warnings.catch_warnings():
            # injected faults make the degradation layers warn; the
            # harness asserts via counters/invariants, not stderr
            warnings.simplefilter("ignore", RuntimeWarning)
            with armed(live, plan=plan) as gateway:
                try:
                    context = workload(live)
                except OSError as exc:
                    # a fault the production layer deliberately does not
                    # absorb (e.g. ENOSPC on a path with no degradation
                    # story); the partial log still enumerates below
                    context = None
                    log(f"{name}: workload aborted by injected "
                        f"{exc.__class__.__name__} (errno {exc.errno})")
        states = enumerate_crash_states(gateway.log, max_states=max_states)
        report = ScenarioReport(
            name=name,
            plan=plan.describe() if plan is not None else "disarmed-record",
            ops=len(gateway.log), states=len(states),
            op_signature=_op_signature(gateway),
            truncated=(max_states is not None
                       and len(states) >= max_states))
        if report.truncated:
            log(f"{name}: enumeration truncated at {max_states} states")
        for state in states:
            problems = check_state_legal(gateway.log, state)
            if problems:
                report.illegal_states.append(
                    f"{state.state_id} ({state.description}): "
                    + "; ".join(problems))
                continue
            if context is None:
                continue  # aborted workload: no expectations to check
            image = scratch / "images" / state.state_id
            materialize(state, image)
            problems = check(image, context)
            if problems:
                report.violations.append({
                    "state_id": state.state_id,
                    "description": state.description,
                    "problems": problems,
                })
                if repro_dir is not None:
                    _emit_repro(repro_dir, name, state, gateway, problems)
            shutil.rmtree(image, ignore_errors=True)
    return report


def _emit_repro(repro_dir: Path, scenario: str, state: CrashState,
                gateway: IOGateway, problems: List[str]) -> None:
    """Persist the failing crash state — image, provenance, op log,
    violations — for upload/inspection."""
    dest = Path(repro_dir) / f"{scenario}-{state.state_id}"
    shutil.rmtree(dest, ignore_errors=True)
    materialize(state, dest / "image", sidecar=dest / "crash-state.json")
    dump_oplog_jsonl(gateway, dest / "oplog.jsonl")
    (dest / "violations.txt").write_text(
        "\n".join(problems) + "\n")


# ---------------------------------------------------------------------------
# campaigns: seeded fault injection, bit-reproducible from (seed, plan)
# ---------------------------------------------------------------------------

def run_campaign_once(plan_name: str, seed: int,
                      max_states: Optional[int] = None,
                      repro_dir: Optional[Path] = None,
                      log: Callable[[str], None] = lambda s: None,
                      ) -> Dict[str, Any]:
    """One pass of every scenario under ``(plan_name, seed)``; the
    returned record (fault schedules, durability stats deltas,
    violation counts) is what reproducibility hashes."""
    outcome: Dict[str, Any] = {"plan": plan_name, "seed": seed,
                               "scenarios": {}}
    for name in SCENARIOS:
        plan = named_durability_plan(plan_name, seed)
        before = vfs.stats_snapshot()
        workload, check = _WORKLOADS[name]
        with tempfile.TemporaryDirectory(prefix="durability-camp-") as td:
            scratch = Path(td)
            live = scratch / "live"
            live.mkdir()
            aborted = None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with armed(live, plan=plan) as gateway:
                    try:
                        context = workload(live)
                    except OSError as exc:
                        context = None
                        aborted = f"{exc.__class__.__name__}:{exc.errno}"
            states = enumerate_crash_states(gateway.log,
                                            max_states=max_states)
            violations = 0
            for state in states:
                if check_state_legal(gateway.log, state) or context is None:
                    continue
                image = scratch / "images" / state.state_id
                materialize(state, image)
                problems = check(image, context)
                if problems:
                    violations += 1
                    if repro_dir is not None:
                        _emit_repro(repro_dir, f"{plan_name}-{name}",
                                    state, gateway, problems)
                shutil.rmtree(image, ignore_errors=True)
        after = vfs.stats_snapshot()
        delta = {k: after[k] - before.get(k, 0) for k in sorted(after)
                 if after[k] != before.get(k, 0)}
        outcome["scenarios"][name] = {
            "schedule": [list(t) for t in gateway.fault_schedule()],
            "ops": len(gateway.log),
            "states": len(states),
            "violations": violations,
            "stats": delta,
            "aborted": aborted,
        }
        log(f"{name} under {plan_name}/{seed}: {len(gateway.log)} ops, "
            f"{len(states)} states, "
            f"{len(gateway.fault_schedule())} faults injected, "
            f"{violations} violations"
            + (f", aborted={aborted}" if aborted else ""))
    return outcome


def campaign_digest(outcome: Dict[str, Any]) -> str:
    canonical = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_campaign(plan_name: str, seed: int,
                 max_states: Optional[int] = None,
                 repro_dir: Optional[Path] = None,
                 log: Callable[[str], None] = lambda s: None,
                 ) -> Dict[str, Any]:
    """Run the ``(plan, seed)`` campaign twice and require the two
    passes to be bit-identical — the replayability contract of the
    content-addressed injection points."""
    first = run_campaign_once(plan_name, seed, max_states=max_states,
                              repro_dir=repro_dir, log=log)
    second = run_campaign_once(plan_name, seed, max_states=max_states)
    digest = campaign_digest(first)
    reproducible = digest == campaign_digest(second)
    violations = sum(s["violations"] for s in first["scenarios"].values())
    return {"plan": plan_name, "seed": seed, "digest": digest,
            "reproducible": reproducible, "violations": violations,
            "outcome": first}


# ---------------------------------------------------------------------------
# the smoke: what CI gates on
# ---------------------------------------------------------------------------

#: (plan, scenario) enumerations the smoke runs beyond plain recording:
#: liar-fsync is the classic rename-before-durable hole
SMOKE_FAULT_ENUMERATIONS = (("liar-fsync", "cache"),
                            ("liar-fsync", "manifest"))

SMOKE_CAMPAIGN_PLAN = "flaky-disk"


def run_smoke(seed: int = 1, max_states: Optional[int] = 400,
              repro_dir: Optional[Path] = None,
              log: Callable[[str], None] = print) -> Dict[str, Any]:
    """The CI smoke: record-only enumeration of both subsystems,
    liar-fsync enumerations, and one bit-reproducibility campaign."""
    report: Dict[str, Any] = {"version": DURABILITY_REPORT_VERSION,
                              "seed": seed, "scenarios": {}}
    ok = True
    for name in SCENARIOS:
        scenario = run_scenario(name, plan=None, max_states=max_states,
                                repro_dir=repro_dir, log=log)
        report["scenarios"][name] = scenario.golden_entry()
        ok &= _announce(scenario, log)
    for plan_name, name in SMOKE_FAULT_ENUMERATIONS:
        scenario = run_scenario(name,
                                plan=named_durability_plan(plan_name, seed),
                                max_states=max_states,
                                repro_dir=repro_dir, log=log)
        report["scenarios"][f"{name}+{plan_name}"] = scenario.golden_entry()
        ok &= _announce(scenario, log)
    campaign = run_campaign(SMOKE_CAMPAIGN_PLAN, seed,
                            max_states=max_states, repro_dir=repro_dir,
                            log=log)
    report["campaign"] = {"plan": campaign["plan"], "seed": seed,
                          "digest": campaign["digest"],
                          "reproducible": campaign["reproducible"],
                          "violations": campaign["violations"]}
    if not campaign["reproducible"]:
        log(f"FAIL: campaign ({SMOKE_CAMPAIGN_PLAN}, seed {seed}) is not "
            f"bit-reproducible")
        ok = False
    if campaign["violations"]:
        log(f"FAIL: campaign recovered with {campaign['violations']} "
            f"invariant violations")
        ok = False
    report["ok"] = ok
    return report


def _announce(scenario: ScenarioReport,
              log: Callable[[str], None]) -> bool:
    log(f"{scenario.name} [{scenario.plan}]: {scenario.ops} ops -> "
        f"{scenario.states} crash states, "
        f"{len(scenario.violations)} violations"
        + (" (truncated)" if scenario.truncated else ""))
    for item in scenario.violations:
        log(f"  FAIL {item['state_id']} ({item['description']}):")
        for problem in item["problems"]:
            log(f"    {problem}")
    for line in scenario.illegal_states:
        log(f"  ILLEGAL-STATE {line}")
    return scenario.ok


def compare_golden(report: Dict[str, Any],
                   golden: Dict[str, Any]) -> List[str]:
    """Differences between a fresh smoke report and the committed
    golden (op counts, state counts, op signatures, campaign digest)."""
    diffs = []
    if golden.get("version") != report["version"]:
        return [f"golden schema version {golden.get('version')} != "
                f"{report['version']} — re-baseline"]
    if golden.get("seed") != report["seed"]:
        diffs.append(f"golden seed {golden.get('seed')} != {report['seed']}")
    for name, entry in report["scenarios"].items():
        want = golden.get("scenarios", {}).get(name)
        if want is None:
            diffs.append(f"{name}: no golden entry")
            continue
        for key in ("ops", "states", "op_signature"):
            if want.get(key) != entry[key]:
                diffs.append(f"{name}.{key}: golden={want.get(key)} "
                             f"fresh={entry[key]}")
    want = golden.get("campaign", {})
    for key in ("plan", "digest"):
        if want.get(key) != report["campaign"][key]:
            diffs.append(f"campaign.{key}: golden={want.get(key)} "
                         f"fresh={report['campaign'][key]}")
    return diffs
