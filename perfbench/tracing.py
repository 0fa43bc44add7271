"""Per-layer attribution for the traced run.

Spans are recorded from outside the program: :class:`Instrumentation`
replaces each layer's public entry point with a timing wrapper for the
duration of one traced pass and restores every original afterwards.
Spans nest on a stack, so a layer's self time is its span's duration
minus the time its traced child spans cover. For generator entry points
(CP save/restore) each resume is one span. Spans are held in memory and
written out once, after the pass.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.core.predictor import ResumePredictor
from repro.core.syncmon import SyncMon
from repro.experiments import matrix, runner
from repro.experiments.cache import ResultCache
from repro.experiments.matrix import RunRequest
from repro.gpu.command_processor import CommandProcessor
from repro.gpu.dispatcher import Dispatcher
from repro.gpu.gpu import GPU
from repro.mem.hierarchy import MemoryHierarchy

from perfbench import harness

_clock = time.perf_counter_ns

#: wrapper kinds
CALL, GENERATOR = "call", "generator"

#: (owner, attribute, span name, kind). ``owner`` is the class or module
#: whose attribute the program looks up at call time.
TARGETS: Tuple[Tuple[Any, str, str, str], ...] = (
    (harness, "run_matrix", "matrix", CALL),
    (RunRequest, "execute", "cell", CALL),
    (matrix, "run_benchmark", "runner", CALL),
    (runner, "build_benchmark", "workloads.build", CALL),
    (ResultCache, "get", "cache.get", CALL),
    (ResultCache, "put", "cache.put", CALL),
    (GPU, "__init__", "gpu.build", CALL),
    (ResumePredictor, "__init__", "predictor.build", CALL),
    (GPU, "run", "gpu.run", CALL),
    (MemoryHierarchy, "load", "mem.load", CALL),
    (MemoryHierarchy, "store_word", "mem.store", CALL),
    (MemoryHierarchy, "atomic", "mem.atomic", CALL),
    (MemoryHierarchy, "bulk_transfer", "mem.bulk", CALL),
    (SyncMon, "register", "syncmon.register", CALL),
    (SyncMon, "withdraw", "syncmon.withdraw", CALL),
    (SyncMon, "on_atomic", "syncmon.on_atomic", CALL),
    (ResumePredictor, "predict", "predictor.predict", CALL),
    (ResumePredictor, "record_update", "predictor.record", CALL),
    (Dispatcher, "kick", "dispatcher.kick", CALL),
    (Dispatcher, "notify_met", "dispatcher.notify_met", CALL),
    (Dispatcher, "requeue", "dispatcher.requeue", CALL),
    (CommandProcessor, "save_context", "cp.save", GENERATOR),
    (CommandProcessor, "restore_context", "cp.restore", GENERATOR),
    (CommandProcessor, "note_waiting", "cp.note_waiting", CALL),
)


class SpanRecorder:
    """In-memory span store plus per-name call counts and self times.

    A span row is ``(cell, name, parent, start_ns, end_ns)``; spans of
    one cell share the cell index (-1 outside any cell)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.cell = -1
        self.span_cell = array("q")
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[List[int]] = []  # [span index, start, child ns, name]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self.names.index(name)

    def enter(self, nid: int) -> List[int]:
        stack = self._stack
        index = len(self.span_start)
        self.span_cell.append(self.cell)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0)
        start = _clock()
        self.span_start.append(start)
        frame = [index, start, 0, nid]
        stack.append(frame)
        return frame

    def exit(self, frame: List[int]) -> None:
        end = _clock()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("span stack out of order")
        duration = end - frame[1]
        self.span_end[frame[0]] = end
        self.self_ns[frame[3]] += duration - frame[2]
        if stack:
            stack[-1][2] += duration

    def write(self, path: Path) -> None:
        """Write every span as gzipped TSV (name table in the header)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# names: " + " ".join(self.names) + "\n")
            out.write("cell\tname\tparent\tstart_ns\tend_ns\n")
            rows = zip(self.span_cell, self.span_name, self.span_parent,
                       self.span_start, self.span_end)
            out.writelines(f"{c}\t{n}\t{p}\t{s}\t{e}\n"
                           for c, n, p, s, e in rows)


class _TimedGenerator:
    """Generator proxy timing every resume as one span."""

    __slots__ = ("_gen", "_rec", "_nid")

    def __init__(self, gen, rec: SpanRecorder, nid: int) -> None:
        self._gen, self._rec, self._nid = gen, rec, nid

    def __iter__(self):
        return self

    def _resume(self, method: Callable, *args):
        frame = self._rec.enter(self._nid)
        try:
            return method(*args)
        finally:
            self._rec.exit(frame)

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._gen.close()


class Instrumentation:
    """Installs the wrappers on enter and restores every original on exit.

    Besides spans it collects what the per-layer metrics read from the
    program's own objects: engine and L2 counters of every GPU after
    ``GPU.run`` returns, and every executed cell's RunResult."""

    def __init__(self, rec: SpanRecorder, targets=TARGETS) -> None:
        self.rec = rec
        self.targets = targets
        self.results: List[Any] = []
        self.engine: Dict[str, int] = {
            "fired": 0, "cancelled_reaped": 0, "cycles": 0,
            "l2_hits": 0, "l2_accesses": 0}
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for owner, attr, name, kind in self.targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, kind))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str, kind: str) -> Callable:
        rec = self.rec
        nid = rec.name_id(name)
        calls = rec.calls

        if kind == GENERATOR:
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                calls[nid] += 1
                return _TimedGenerator(fn(*args, **kwargs), rec, nid)
            return generator

        if name == "cell":
            @functools.wraps(fn)
            def cell(*args, **kwargs):
                rec.cell = calls[nid]
                calls[nid] += 1
                frame = rec.enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.exit(frame)
                    rec.cell = -1
                self.results.append(result)
                return result
            return cell

        after = self._after_run if name == "gpu.run" else None

        @functools.wraps(fn)
        def call(*args, **kwargs):
            calls[nid] += 1
            frame = rec.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.exit(frame)
            if after is not None:
                after(args, out)
            return out
        return call

    def _after_run(self, args, _outcome) -> None:
        gpu = args[0]
        metrics = gpu.env.metrics()
        self.engine["fired"] += metrics["fired"]
        self.engine["cancelled_reaped"] += metrics["cancelled_reaped"]
        self.engine["cycles"] += gpu.env.now
        l2 = gpu.hierarchy.l2.stats
        self.engine["l2_hits"] += l2.hits
        self.engine["l2_accesses"] += l2.accesses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: every per-layer metric, grouped by layer, with its unit. ``X.calls``
#: counts calls of span ``X``; ``X.self_s`` is its total self time.
LAYER_UNITS: Dict[str, str] = {
    # gpu construction
    "gpu.build.self_s": "s",
    "predictor.build.self_s": "s",
    # gpu run loop: engine, process resumes, device ops, kernels, sync
    "gpu.run.self_s": "s",
    # sim.engine, read from env.metrics() after GPU.run returns
    "engine.fired": "count",
    "engine.fired_per_kcycle": "1/kcycle",
    "engine.cancelled_reaped": "count",
    # mem.hierarchy
    "mem.load.calls": "count",
    "mem.load.self_s": "s",
    "mem.store.calls": "count",
    "mem.store.self_s": "s",
    "mem.atomic.calls": "count",
    "mem.atomic.self_s": "s",
    "mem.bulk.calls": "count",
    "l2.hit_rate": "ratio",
    # core.syncmon
    "syncmon.register.calls": "count",
    "syncmon.register.self_s": "s",
    "syncmon.withdraw.calls": "count",
    "syncmon.on_atomic.calls": "count",
    "syncmon.on_atomic.self_s": "s",
    "syncmon.met_ratio": "ratio",
    # core.predictor
    "predictor.predict.calls": "count",
    "predictor.predict.self_s": "s",
    "predictor.record.calls": "count",
    "predictor.record.self_s": "s",
    # gpu.dispatcher
    "dispatcher.kick.calls": "count",
    "dispatcher.kick.self_s": "s",
    "dispatcher.notify_met.calls": "count",
    "dispatcher.notify_met.self_s": "s",
    "dispatcher.requeue.calls": "count",
    # gpu.command_processor
    "cp.save.calls": "count",
    "cp.save.self_s": "s",
    "cp.restore.calls": "count",
    "cp.restore.self_s": "s",
    "cp.note_waiting.calls": "count",
    # experiments.runner, workloads, experiments.cache, experiments.matrix
    "runner.self_s": "s",
    "workloads.build.self_s": "s",
    "cache.get.calls": "count",
    "cache.get.self_s": "s",
    "cache.put.calls": "count",
    "cache.put.self_s": "s",
    "cache.hit_ratio": "ratio",
    "matrix.self_s": "s",
    # modelled design, summed over executed cells (simulated, not host)
    "sim.cycles": "cycles",
    "device.atomics": "count",
    "device.waiting_atomics": "count",
    "context_switches": "count",
    "wg.waiting_cycles": "cycles",
    "wait.retry.straggler": "count",
    "wait.retry.backstop": "count",
    # the cost of observing: traced wall_s / untraced wall_s
    "trace_overhead": "ratio",
    # failed cells / attempted cells over both passes (filled in by run.py)
    "fail_ratio": "ratio",
}


def layer_metrics(inst: Instrumentation, cache: ResultCache,
                  traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name, except
    ``fail_ratio``."""
    rec = inst.rec
    calls = dict(zip(rec.names, rec.calls))
    self_s = {n: ns / 1e9 for n, ns in zip(rec.names, rec.self_ns)}
    out: Dict[str, float] = {}
    for metric in LAYER_UNITS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "self_s":
            out[metric] = self_s[layer]

    results = inst.results

    def stat(key: str) -> int:
        return sum(int(r.stats.get(key, 0)) for r in results)

    eng = inst.engine
    out.update({
        "engine.fired": eng["fired"],
        "engine.fired_per_kcycle": _ratio(eng["fired"], eng["cycles"] / 1e3),
        "engine.cancelled_reaped": eng["cancelled_reaped"],
        "l2.hit_rate": _ratio(eng["l2_hits"], eng["l2_accesses"]),
        "syncmon.met_ratio": _ratio(stat("syncmon.conditions_met"),
                                    stat("syncmon.registrations")),
        "cache.hit_ratio": _ratio(cache.hits, cache.hits + cache.misses),
        "sim.cycles": sum(r.cycles for r in results),
        "device.atomics": sum(r.atomics for r in results),
        "device.waiting_atomics": sum(r.waiting_atomics for r in results),
        "context_switches": sum(r.context_switches for r in results),
        "wg.waiting_cycles": sum(r.wg_waiting_cycles for r in results),
        "wait.retry.straggler": stat("wait.retry.straggler"),
        "wait.retry.backstop": stat("wait.retry.backstop"),
        "trace_overhead": _ratio(traced_wall, untraced_wall),
    })
    return out
