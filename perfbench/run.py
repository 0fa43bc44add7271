"""System benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 40 --trace 0

Run from the repository root. Workloads are defined in
``perfbench/workloads.py``; ``BENCHMARK.json`` names ``paper-grid`` and
``quick-sweep``. With ``--trace 0`` the run measures, with no wrapper
installed but the per-cell timer:

* ``setup_s`` -- median over fresh interpreters of the time from spawn
  until the first cell could run (import ``repro``, ``code_fingerprint()``,
  generate the cell list), after one unmeasured warm-up spawn;
* in one separate process, ``passes`` cold passes over the cell list:
  ``wall_s`` is the median pass, ``cell_p50_ms`` / ``cell_tail_ms`` are
  taken over every executed cell of every pass, and ``peak_rss_mb`` is
  that process's peak resident memory (including the host speed probe's
  table, about 14 MB).

Host times are stated at the reference host speed of
``perfbench/hostspeed.py``: a fixed probe is timed between cells (and
around each setup spawn), and each time is scaled by how much slower or
faster than the reference the probes around it ran. The raw host times
are printed on a line of their own. Every process of a run is pinned to
one CPU, so that probes and timed work share it.

``passes`` is ``seconds // NOMINAL_PASS_S[workload]`` (at least one, and
enough for more than ten executed cells), so two commits run identical
work for the same ``--seconds``.

With ``--trace 1`` the process runs one pass with no wrapper, then one
traced pass, and reports the per-layer metrics of
``perfbench/tracing.py``; the traced pass's spans are written to
``.perfbench/spans-<workload>.tsv.gz``, replacing the previous run's.

Every cell of every pass is checked (``perfbench/workloads.py``). The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

``--record-expected`` rewrites ``perfbench/expected.json`` from the
default seed; run it only on a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

#: host seconds of one pass at the seed commit (2-vCPU x86 host); only
#: used to turn ``--seconds`` into a fixed pass count
NOMINAL_PASS_S = {"paper-grid": 10.0, "oversub-grid": 10.0, "quick-sweep": 40.0}
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    """The program's own ``REPRO_*`` knobs are cleared so every run sees
    the defaults a user gets."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def _spawn(role: str, opts) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    return subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{proc.args[3]} process timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{proc.args[3]} process exited {proc.returncode}")
    return out


def measure_setup(opts) -> Tuple[list, list]:
    """Seconds from spawn to ``ready`` of fresh interpreters, after one
    unmeasured warm-up: ``(at reference host speed, raw)``."""
    from perfbench.hostspeed import HostSpeed

    speed, intervals = HostSpeed(), []
    for _ in range(SETUP_REPEATS + 1):
        speed.probe()
        start = time.perf_counter()
        proc = _spawn("setup", opts)
        try:
            line = proc.stdout.readline()
            intervals.append((start, time.perf_counter()))
        finally:
            _finish(proc)
        if line.strip() != "ready":
            raise RuntimeError("setup process did not report ready")
    speed.probe()
    raw = [end - start for start, end in intervals[1:]]
    return [(end - start) * speed.scale(start, end)
            for start, end in intervals[1:]], raw


# -- child roles --------------------------------------------------------

def role_setup(opts) -> None:
    from repro.experiments.cache import code_fingerprint

    from perfbench.workloads import cell_list

    code_fingerprint()
    cell_list(opts.workload, opts.seed)
    print("ready", flush=True)


def role_load(opts) -> dict:
    from perfbench.harness import (
        TAIL_BEYOND, CellTimer, check_cells, run_pass, scale_passes,
    )
    from perfbench.hostspeed import HostSpeed
    from perfbench.workloads import DEFAULT_SEED, cell_list

    sweeps = cell_list(opts.workload, opts.seed)
    expected = json.loads(EXPECTED.read_text())
    tmp = OUT / f"tmp-{os.getpid()}"
    report = {"attempted": 0, "problems": []}

    def checked_pass():
        wall, cells, cache = run_pass(sweeps, tmp)
        report["attempted"] += len(cells)
        report["problems"] += check_cells(cells, expected,
                                          digest=opts.seed == DEFAULT_SEED)
        return wall, cache

    try:
        if opts.trace:
            from perfbench.tracing import Instrumentation, SpanRecorder, layer_metrics

            untraced, _ = checked_pass()
            rec = SpanRecorder()
            with Instrumentation(rec) as inst:
                traced, cache = checked_pass()
            report["layers"] = layer_metrics(inst, cache, traced, untraced)
            rec.write(OUT / f"spans-{opts.workload}.tsv.gz")
        else:
            count = max(1, int(opts.seconds // NOMINAL_PASS_S[opts.workload]))
            speed, passes = HostSpeed(), []
            with CellTimer(speed) as timer:
                # a short run still needs enough cells for a tail
                while len(passes) < count or len(timer.samples) <= TAIL_BEYOND:
                    first = len(timer.samples)
                    speed.probe()
                    start = time.perf_counter()
                    wall, _ = checked_pass()
                    end = time.perf_counter()
                    speed.probe()
                    passes.append((start, end, wall, first, len(timer.samples)))
            report["walls"], report["samples"] = scale_passes(speed, timer, passes)
            report["raw_walls"] = [wall for _, _, wall, _, _ in passes]
            report["raw_samples"] = timer.samples
            report["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return report


def record_expected() -> None:
    """Write ``expected.json`` from the default seed: how every cell of
    every workload ends, and the digest of its modelled outcome."""
    from perfbench.harness import run_pass
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, cell_id, cell_list, result_digest

    results = {}
    tmp = OUT / f"tmp-{os.getpid()}"
    for workload in WORKLOADS:
        try:
            _, cells, _ = run_pass(cell_list(workload, DEFAULT_SEED), tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        for cell in cells:
            if cell.result is None:
                raise RuntimeError(f"{cell_id(cell.request)} failed: "
                                   f"{cell.failure.get('message')}")
            results[cell_id(cell.request)] = cell.result
    stat_keys = sorted({key for r in results.values() for key in r.stats})
    cells = {name: {"outcome": r.reason, "digest": result_digest(r, stat_keys)}
             for name, r in sorted(results.items())}
    doc = {"seed": DEFAULT_SEED, "stat_keys": stat_keys, "cells": cells}
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n")


# -- parent -------------------------------------------------------------

def end_to_end_metrics(load: dict, setup: list) -> dict:
    """The ``--trace 0`` metrics from a load report and setup times."""
    from perfbench.harness import cell_stats

    cells = cell_stats(load["samples"])
    values = {
        "wall_s": statistics.median(load["walls"]),
        "cell_p50_ms": cells["cell_p50_ms"],
        "cell_tail_ms": cells["cell_tail_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": load["peak_rss_mb"],
    }
    print(f"  wall_s: median of {len(load['walls'])} passes; cell_p50_ms and "
          f"cell_tail_ms (p{cells['tail_percentile']}) over "
          f"{cells['samples']} executed cells; setup_s: median of "
          f"{len(setup)} fresh interpreters")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def layer_metrics(load: dict, fail_ratio: float) -> dict:
    """The ``--trace 1`` metrics from a traced load report."""
    from perfbench.tracing import LAYER_UNITS

    values = dict(load["layers"], fail_ratio=fail_ratio)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}


def run(opts) -> dict:
    from perfbench.harness import cell_stats

    load = json.loads(_finish(_spawn("load", opts)).splitlines()[-1])
    attempted, problems = load["attempted"], load["problems"]
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    fail_ratio = len(problems) / attempted
    print(f"workload {opts.workload} seed {opts.seed}: {attempted} cells "
          f"checked, {len(problems)} failed (fail_ratio {fail_ratio:.6g})")
    if opts.trace:
        metrics = layer_metrics(load, fail_ratio)
    else:
        setup, raw_setup = measure_setup(opts)
        metrics = end_to_end_metrics(load, setup)
        raw = cell_stats(load["raw_samples"])
        print(f"  raw host times: wall_s {statistics.median(load['raw_walls']):.6g}"
              f" s, cell_p50_ms {raw['cell_p50_ms']:.6g} ms, cell_tail_ms "
              f"{raw['cell_tail_ms']:.6g} ms, setup_s "
              f"{statistics.median(raw_setup):.6g} s")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    return {"correct": not problems, "attempted": attempted,
            "failed": len(problems), "metrics": metrics}


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="paper-grid")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("parent", "setup", "load"),
                           default="parent", help=argparse.SUPPRESS)
    parser.add_argument("--record-expected", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    opts = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    # repro and perfbench become importable only here, hence the
    # function-local imports throughout this file
    sys.path[:0] = [str(SRC), str(ROOT)]
    if opts.record_expected:
        record_expected()
        return 0
    if opts.role == "setup":
        role_setup(opts)
        return 0
    if opts.role == "load":
        print(json.dumps(role_load(opts)))
        return 0
    from perfbench.workloads import WORKLOADS

    if opts.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {opts.workload!r}", file=sys.stderr)
        return 2
    # probes and timed work must share a CPU; children inherit this
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(opts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
