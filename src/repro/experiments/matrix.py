"""Parallel execution of the experiment matrix with result caching.

Every figure/table sweep is a list of independent simulation cells
(benchmark × policy × scenario × overrides). :func:`run_matrix`
deduplicates identical cells inside one sweep (e.g. the per-benchmark
Baseline run every normalized figure repeats), serves what it can from
the content-addressed :mod:`~repro.experiments.cache`, runs the rest
(in-process at ``jobs=1``, else on one
:class:`~concurrent.futures.ProcessPoolExecutor`), puts each result
into the cache as it settles, and returns results in deterministic
request order with per-cell error capture — one failed cell does not
abort the sweep.

- No cell needs a wall-clock budget: every simulation ends on its own,
  completed or deadlocked, bounded by ``GPUConfig.max_cycles`` and the
  progress watchdog. A deadlocked cell is no failure: it completes,
  with :attr:`RunResult.deadlocked` and the watchdog's ``diagnosis``.
- A failed cell, one whose simulation raised, carries a *structured*
  failure record (exception type, message, traceback), and
  :attr:`MatrixResult.errors` lists the failed cells. Reading a failed
  cell's result raises :class:`CellError`, so a figure fails on its
  first lost cell instead of rendering a partial table. Nothing is
  retried: a simulation that raised would raise again on the same seed
  and plan.
- A worker that dies (``BrokenProcessPool``) ends the pool: every cell
  still without a result gets a ``WorkerCrashError`` failure.
- Any exception that leaves the pool, ``KeyboardInterrupt`` included,
  kills the pool's workers before it propagates, so none outlives the
  sweep.

Every completed cell is already in the result cache, so a sweep that
crashed or was interrupted resumes by re-running it: completed cells are
cache hits and only the missing ones execute.

Simulations are seeded and deterministic, so ``jobs=1`` and ``jobs=N``
produce bit-identical :class:`RunResult` fields.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.core.policies import PolicySpec
from repro.errors import ConfigError
from repro.experiments.cache import (
    ResultCache, default_cache, result_to_payload,
)
from repro.experiments.runner import RunResult, Scenario, run_benchmark
from repro.faults.plan import FaultPlan
from repro.gpu.diagnostics import diagnosis_signature

#: sentinel: "use the process-wide default cache"
DEFAULT_CACHE = "default"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg, else ``REPRO_JOBS``, else cpu_count."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigError(
                    f"REPRO_JOBS must be an integer, got {env!r}")
        else:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def _jsonable(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # Nested dataclasses (e.g. a Scenario's FaultPlan): prefer their
        # canonical spec() so cache keys survive repr changes.
        spec = getattr(value, "spec", None)
        return _jsonable(spec() if callable(spec) else _dataclass_spec(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _dataclass_spec(obj: Any) -> Dict[str, Any]:
    return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}


@dataclass(frozen=True)
class RunRequest:
    """One cell of the experiment matrix (the spec of one simulation)."""

    benchmark: str
    policy: PolicySpec
    scenario: Scenario
    validate: bool = True
    config_overrides: Optional[Dict[str, Any]] = None

    def spec(self) -> Dict[str, Any]:
        """Canonical dict of everything that determines the result."""
        return {
            "benchmark": self.benchmark,
            "policy": self.policy.spec(),
            "scenario": self.scenario.spec(),
            "validate": self.validate,
            "config_overrides": _jsonable(self.config_overrides or {}),
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "RunRequest":
        """Rebuild a request from its canonical spec (repro-bundle
        replay)."""
        return cls(
            benchmark=spec["benchmark"],
            policy=PolicySpec.from_spec(spec["policy"]),
            scenario=Scenario.from_spec(spec["scenario"]),
            validate=spec.get("validate", True),
            config_overrides=dict(spec["config_overrides"])
            if spec.get("config_overrides") else None,
        )

    def execute(self) -> RunResult:
        return run_benchmark(
            self.benchmark,
            self.policy,
            self.scenario,
            validate=self.validate,
            config_overrides=dict(self.config_overrides)
            if self.config_overrides else None,
        )

    # -- repro-bundle hooks (repro.recovery.bundle / .shrink) -----------

    @staticmethod
    def bundle_stem(spec: Dict[str, Any]) -> str:
        policy = spec.get("policy", {}).get("name", "policy")
        scenario = spec.get("scenario", {}).get("label", "scenario")
        return f"{spec['benchmark']}-{policy}-{scenario}"

    @staticmethod
    def check_bundle(spec: Any, expected: Dict[str, Any]) -> None:
        if not isinstance(spec, dict) or not all(
                k in spec for k in ("benchmark", "policy", "scenario")):
            raise ConfigError(
                "bundle request must carry benchmark/policy/scenario specs")
        if expected["mode"] not in ("diagnosis", "exception"):
            raise ConfigError(
                f"unknown expected-failure mode {expected['mode']!r}")

    def observe(self, expected: Dict[str, Any],
                trace: bool = False) -> Dict[str, Any]:
        """Execute the cell in-process and classify what happened into
        the same mode vocabulary as the expected clause."""
        request = self
        if trace:
            from repro.trace.config import TraceConfig

            overrides = dict(self.config_overrides or {})
            overrides["trace"] = TraceConfig.parse("all")
            request = replace(request, config_overrides=overrides)

        try:
            result = request.execute()
        except Exception as exc:
            return {"mode": "exception", "type": type(exc).__name__,
                    "detail": str(exc)}

        payload = result_to_payload(result)
        if result.deadlocked:
            return {
                "mode": "diagnosis",
                "signature": (diagnosis_signature(result.diagnosis)
                              or {"kind": "deadlock"}),
                "result": payload,
            }
        return {"mode": "ok", "result": payload}

    @staticmethod
    def matches(expected: Dict[str, Any], observed: Dict[str, Any]) -> bool:
        if expected["mode"] != observed["mode"]:
            return False
        if expected["mode"] == "diagnosis":
            return expected.get("signature") == observed.get("signature")
        return expected.get("type") == observed.get("type")

    def size(self) -> int:
        """Monotone shrink metric: the scenario knobs the shrinker may
        lower plus :meth:`FaultPlan.weight`."""
        scenario = self.scenario
        total = (scenario.total_wgs + scenario.wgs_per_group
                 + scenario.max_wgs_per_cu + scenario.iterations
                 + scenario.episodes)
        if scenario.fault_plan is not None:
            total += scenario.fault_plan.weight()
        return total

    def reductions(self) -> Iterator[Tuple[str, str, str, "RunRequest"]]:
        """Every one-step (dimension, from, to, request) reduction,
        deterministic order: fault-plan shrinks first (they usually cut
        replay time the most), then scenario scale."""
        scenario = self.scenario
        if scenario.fault_plan is not None:
            for dimension, src, dst, plan in _plan_reductions(
                    scenario.fault_plan):
                yield (dimension, src, dst,
                       replace(self,
                               scenario=replace(scenario, fault_plan=plan)))
        for dimension, src, dst, shrunk in _scenario_reductions(scenario):
            yield (dimension, src, dst, replace(self, scenario=shrunk))


def _plan_reductions(
    plan: FaultPlan,
) -> Iterator[Tuple[str, str, str, FaultPlan]]:
    """(dimension, from, to, candidate-plan) reductions, fixed order:
    drop whole families first (biggest steps), then thin each family."""
    for key in ("storm", "notify", "mem", "predictor"):
        part = getattr(plan, key)
        if part is not None:
            yield (f"plan.{key}", "present", "dropped",
                   plan.with_part(key, None))
    if plan.storm is not None:
        storm = plan.storm
        if storm.storms > 1:
            yield ("plan.storm.storms", str(storm.storms),
                   str(storm.storms // 2),
                   plan.with_part("storm",
                                  replace(storm, storms=storm.storms // 2)))
        if storm.severity > 1:
            yield ("plan.storm.severity", str(storm.severity),
                   str(storm.severity // 2),
                   plan.with_part(
                       "storm", replace(storm, severity=storm.severity // 2)))
    if plan.notify is not None:
        notify = plan.notify
        if notify.drop_prob > 0 and notify.delay_prob > 0:
            yield ("plan.notify.delay_prob", str(notify.delay_prob), "0",
                   plan.with_part("notify", replace(notify, delay_prob=0.0)))
            yield ("plan.notify.drop_prob", str(notify.drop_prob), "0",
                   plan.with_part("notify", replace(notify, drop_prob=0.0)))
    if plan.mem is not None and plan.mem.spikes > 1:
        yield ("plan.mem.spikes", str(plan.mem.spikes),
               str(plan.mem.spikes // 2),
               plan.with_part("mem",
                              replace(plan.mem, spikes=plan.mem.spikes // 2)))
    if plan.predictor is not None and plan.predictor.insertions > 1:
        yield ("plan.predictor.insertions", str(plan.predictor.insertions),
               str(plan.predictor.insertions // 2),
               plan.with_part(
                   "predictor",
                   replace(plan.predictor,
                           insertions=plan.predictor.insertions // 2)))


def _scenario_reductions(
    scenario: Scenario,
) -> Iterator[Tuple[str, str, str, Scenario]]:
    """Halving reductions of the scenario's scale knobs, fixed order.
    ``total_wgs`` stays a multiple of ``wgs_per_group`` so work-group
    grids remain well-formed."""
    if (scenario.total_wgs > scenario.wgs_per_group
            and (scenario.total_wgs // 2) % scenario.wgs_per_group == 0):
        yield ("scenario.total_wgs", str(scenario.total_wgs),
               str(scenario.total_wgs // 2),
               replace(scenario, total_wgs=scenario.total_wgs // 2))
    if (scenario.wgs_per_group > 1
            and scenario.total_wgs % (scenario.wgs_per_group // 2) == 0):
        yield ("scenario.wgs_per_group", str(scenario.wgs_per_group),
               str(scenario.wgs_per_group // 2),
               replace(scenario, wgs_per_group=scenario.wgs_per_group // 2))
    if scenario.max_wgs_per_cu > 1:
        yield ("scenario.max_wgs_per_cu", str(scenario.max_wgs_per_cu),
               str(scenario.max_wgs_per_cu // 2),
               replace(scenario, max_wgs_per_cu=scenario.max_wgs_per_cu // 2))
    if scenario.iterations > 1:
        yield ("scenario.iterations", str(scenario.iterations),
               str(scenario.iterations // 2),
               replace(scenario, iterations=scenario.iterations // 2))
    if scenario.episodes > 1:
        yield ("scenario.episodes", str(scenario.episodes),
               str(scenario.episodes // 2),
               replace(scenario, episodes=scenario.episodes // 2))


class CellError(Exception):
    """A matrix cell's simulation raised; carries the worker traceback
    plus the structured failure record (see :func:`_failure_info`)."""

    def __init__(self, request: RunRequest, tb: str,
                 failure: Optional[Dict[str, Any]] = None):
        super().__init__(
            f"cell ({request.benchmark}, {request.policy.name}, "
            f"{request.scenario.label}) failed:\n{tb}"
        )
        self.request = request
        self.traceback = tb
        self.failure = failure or {"type": "Exception", "message": "",
                                   "traceback": tb}


@dataclass
class Cell:
    """Outcome of one request: a result or a structured failure."""

    request: RunRequest
    result: Optional[RunResult] = None
    #: structured failure record: ``type`` / ``message`` / ``traceback``
    failure: Optional[Dict[str, Any]] = None
    from_cache: bool = False

    @property
    def error(self) -> Optional[str]:
        """The failure traceback (None for successful cells)."""
        return self.failure["traceback"] if self.failure else None


def _failure_info(exc: BaseException, tb: str) -> Dict[str, Any]:
    """Structured, picklable record of one cell failure."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": tb,
    }


#: one cell's outcome: (result, failure record)
_Outcome = Tuple[Optional[RunResult], Optional[Dict[str, Any]]]


def _execute_cell(request: RunRequest) -> _Outcome:
    """Pool worker: a simulation that raises comes back as a structured
    failure."""
    try:
        return request.execute(), None
    except Exception as exc:
        return None, _failure_info(exc, traceback.format_exc())


class MatrixResult(Sequence):
    """Cells in request order; indexing yields the cell's RunResult.

    Accessing a failed cell raises :class:`CellError` with the captured
    worker traceback; ``errors`` lists failures without raising.
    """

    def __init__(self, cells: List[Cell], jobs: int,
                 cache_hits: int, cache_misses: int, deduped: int):
        self.cells = cells
        self.jobs = jobs
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.deduped = deduped

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        cell = self.cells[index]
        if cell.failure is not None:
            raise CellError(cell.request, cell.error, failure=cell.failure)
        return cell.result

    @property
    def errors(self) -> List[Cell]:
        """The failed cells, in request order."""
        return [c for c in self.cells if c.failure is not None]

    def get(self, benchmark: str, policy_name: str) -> RunResult:
        """Result of the unique (benchmark, policy-name) cell.

        Sweeps that repeat a pair with different overrides must index by
        position instead."""
        matches = [
            i for i, c in enumerate(self.cells)
            if c.request.benchmark == benchmark
            and c.request.policy.name == policy_name
        ]
        if not matches:
            raise KeyError(f"no cell for ({benchmark}, {policy_name})")
        if len(matches) > 1:
            raise KeyError(
                f"({benchmark}, {policy_name}) is ambiguous "
                f"({len(matches)} cells); index by position"
            )
        return self[matches[0]]

    def summary(self) -> str:
        """One line for experiment-report notes (hit/miss counters)."""
        return (
            f"matrix: {len(self.cells)} cells, {self.cache_hits} cache "
            f"hits, {self.cache_misses} misses, {self.deduped} deduped, "
            f"jobs={self.jobs}"
        )


_CRASH_MESSAGE = "a worker process died before the cell returned a result"

#: the failure of a cell left without a result when a worker died
_WORKER_CRASH = {"type": "WorkerCrashError", "message": _CRASH_MESSAGE,
                 "traceback": _CRASH_MESSAGE}


def _run_cells(
    requests: Sequence[RunRequest],
    jobs: int,
    settle: Callable[[int, _Outcome], None],
) -> None:
    """Execute every cell, calling ``settle(index, outcome)`` in this
    process as each one finishes.

    At ``jobs>1`` the cells share one pool. If a worker dies, the pool
    is broken and every cell not yet finished settles as a
    ``WorkerCrashError`` failure. Any exception that leaves the pool
    (``KeyboardInterrupt`` included) kills its workers first: shutting
    down would wait for the cells in flight, and a parent that died
    instead would leave them running.
    """
    if jobs <= 1:
        for index, request in enumerate(requests):
            settle(index, _execute_cell(request))
        return

    with ProcessPoolExecutor(max_workers=min(jobs, len(requests))) as pool:
        try:
            futures = {}
            for index, request in enumerate(requests):
                try:
                    futures[pool.submit(_execute_cell, request)] = index
                except BrokenProcessPool:  # a worker died mid-submission
                    settle(index, (None, _WORKER_CRASH))
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    outcome = (None, _WORKER_CRASH)
                settle(futures[future], outcome)
        except BaseException:
            for process in list(pool._processes.values()):
                process.kill()
            raise


def run_matrix(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, None] = DEFAULT_CACHE,
    # kept only because perfbench's harness passes checkpoint=False
    checkpoint: bool = False,
) -> MatrixResult:
    """Execute every request, in parallel and through the cache.

    Results come back in request order regardless of completion order.
    ``cache`` is a :class:`ResultCache`, ``None`` (no caching), or the
    default sentinel (:func:`~repro.experiments.cache.default_cache`).

    Each completed cell is put into the cache as it settles, so an
    interrupted sweep resumes by re-running it with the same cache.
    """
    if checkpoint:
        raise ConfigError(
            "checkpoint=True is gone: the result cache now resumes an "
            "interrupted sweep (re-run it with the same cache)")
    jobs = resolve_jobs(jobs)
    if cache == DEFAULT_CACHE:
        cache = default_cache()

    cells: List[Optional[Cell]] = [None] * len(requests)
    cache_hits = cache_misses = deduped = 0

    # Collapse duplicate specs onto their first request, then resolve
    # each distinct spec through the cache once.
    pending: List[Tuple[Optional[str], RunRequest, int]] = []
    duplicates: List[Tuple[int, int]] = []  # (index, index of its first)
    first: Dict[str, int] = {}
    for index, req in enumerate(requests):
        spec = req.spec()
        spec_key = repr(sorted(spec.items()))
        if spec_key in first:
            duplicates.append((index, first[spec_key]))
            deduped += 1
            continue
        first[spec_key] = index
        key = None
        if cache is not None:
            key = cache.key_for(spec)
            hit = cache.get(key)
            if hit is not None:
                cache_hits += 1
                cells[index] = Cell(req, result=hit, from_cache=True)
                continue
            cache_misses += 1
        pending.append((key, req, index))

    # Execute the surviving unique cells; each settles into the cache as
    # it completes, so a re-run of a sweep that died mid-way resumes.
    outcomes: List[_Outcome] = [(None, None)] * len(pending)

    def settle(index: int, outcome: _Outcome) -> None:
        outcomes[index] = outcome
        key = pending[index][0]
        if outcome[0] is not None and key is not None:
            cache.put(key, outcome[0])

    if pending:
        _run_cells([req for (_k, req, _idx) in pending], jobs, settle)

    for (_key, req, index), (result, failure) in zip(pending, outcomes):
        cells[index] = Cell(req, result=result, failure=failure)
    for index, source in duplicates:
        cell = cells[source]
        result = cell.result
        if result is not None:
            # duplicates get their own stats dict so one consumer
            # mutating it cannot corrupt another's view
            result = replace(result, stats=dict(result.stats))
        cells[index] = Cell(cell.request, result=result,
                            failure=cell.failure, from_cache=cell.from_cache)

    return MatrixResult(
        [c for c in cells if c is not None],
        jobs=jobs,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        deduped=deduped,
    )
