"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    awg-repro list                  # available experiments / benchmarks
    awg-repro table1                # print Table 1
    awg-repro fig14                 # regenerate Figure 14 (headline)
    awg-repro fig14 --quick         # small-scale smoke version
    awg-repro fig14 --jobs 8        # fan cells over 8 worker processes
    awg-repro fig14 --no-cache      # force re-simulation of every cell
    awg-repro run SPM_G awg         # one benchmark under one policy
    awg-repro run SPM_G --quick --oversubscribed --seed 7
    awg-repro all                   # every table, figure and ablation,
                                    # each checked against the paper's shape
    awg-repro all --out results     # ... also writing results/<name>.txt
    awg-repro faults --quick        # fault-injection campaign (IFP table)
    awg-repro faults --seed 7 --plans storm,chaos
    awg-repro cache                 # show result-cache location / size
    awg-repro cache --clear         # drop every cached result
    awg-repro replay BUNDLE         # re-run a cell or litmus bundle
    awg-repro shrink BUNDLE         # delta-debug either kind to minimal
    awg-repro faults --bundles DIR --shrink   # bundle + minimize violations
    awg-repro lint                  # static kernel linter (default paths)
    awg-repro lint --json src/repro/workloads
    awg-repro lint --format=github  # CI annotations (::error file=...)
    awg-repro analyze               # static progress table (12x8 verdicts)
    awg-repro analyze SLM_G --json  # one benchmark, machine-readable
    awg-repro analyze --dot         # role wait-for graphs (GraphViz)
    awg-repro run SPM_G awg --sanitize   # dynamic race detection run
    awg-repro run _RACY --sanitize  # the seeded-race drill (exits 1)
    awg-repro run FAM_G awg --trace --out t.json   # Chrome/Perfetto trace
    awg-repro run SPM_G --quick --trace --categories wg,sync,dispatch
    awg-repro litmus run --quick    # corpus + generated programs, judged
    awg-repro litmus run --seed 7 --programs 16      # wider random sweep
    awg-repro litmus generate --seed 3 --out progs.json

A sweep stopped by a crash, Ctrl-C or SIGTERM resumes by re-running the
same command: its completed cells are result-cache hits. With
``--no-cache`` a re-run starts over.

The committed goldens (stats, litmus verdicts, the static analysis
table) are checked, and re-baselined, by the tier-1 tests only.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from repro.core.policies import all_policy_names, named_policy
from repro.experiments import (
    QUICK_SCALE, PAPER_SCALE, OVERSUBSCRIBED, ExperimentResult, Scenario,
    run_benchmark,
)
from repro.experiments import (
    ablations, fig5, fig7, fig8, fig9, fig11, fig13, fig14, fig15, table1,
    table2,
)
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.workloads.registry import benchmark_names

#: what ``--quick`` runs the oversubscribed figures (13, 15) at
QUICK_OVERSUBSCRIBED = OVERSUBSCRIBED.scaled(
    total_wgs=32, wgs_per_group=4, max_wgs_per_cu=4,
    iterations=3, episodes=6, resource_loss_at_us=10.0,
    label="quick-oversubscribed",
)


class Artifact(NamedTuple):
    """One committed ``results/<name>.txt``. ``run()`` regenerates it at
    the committed scale and ``check`` asserts the paper's shape there.
    ``--quick`` passes ``quick`` to ``run`` instead (None: no smaller
    scale) and skips ``check``."""

    run: Callable[..., ExperimentResult]
    check: Callable[[ExperimentResult], None]
    quick: Optional[Scenario] = QUICK_SCALE
    #: ``run`` sweeps cells through run_matrix (takes jobs=, cache=)
    sweeps: bool = True


#: the paper's tables and figures, in paper order
EXPERIMENTS = {
    "table1": Artifact(table1.run, table1.check, quick=None, sweeps=False),
    "table2": Artifact(table2.run, table2.check),
    "fig5": Artifact(fig5.run, fig5.check, sweeps=False),
    "fig7": Artifact(fig7.run, fig7.check),
    "fig8": Artifact(fig8.run, fig8.check),
    "fig9": Artifact(fig9.run, fig9.check),
    "fig11": Artifact(fig11.run, fig11.check),
    "fig13": Artifact(fig13.run, fig13.check, QUICK_OVERSUBSCRIBED),
    "fig14": Artifact(fig14.run, fig14.check),
    "fig15": Artifact(fig15.run, fig15.check, QUICK_OVERSUBSCRIBED),
}

#: the design-choice ablations (``repro ablations``)
ABLATIONS = {
    "ablation_syncmon": Artifact(ablations.syncmon_capacity,
                                 ablations.check_syncmon_capacity),
    "ablation_log": Artifact(ablations.monitor_log_capacity,
                             ablations.check_monitor_log_capacity),
    "ablation_resume": Artifact(ablations.resume_prediction,
                                ablations.check_resume_prediction),
    "ablation_stall": Artifact(ablations.stall_prediction,
                               ablations.check_stall_prediction,
                               quick=None),
}

#: everything ``repro all`` runs and ``--out DIR`` writes
ARTIFACTS = {**EXPERIMENTS, **ABLATIONS}

#: every command besides the experiment ids, as dispatched below
COMMANDS = (
    "list", "all", "run", "ablations", "timeline", "faults", "cache",
    "replay", "shrink", "lint", "analyze", "litmus",
)


def _run_cache_command(clear: bool) -> int:
    cache = ResultCache(default_cache_dir())
    if clear:
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.root}")
        return 0
    print(f"cache dir:     {cache.root}")
    print(f"entries:       {cache.entry_count()}")
    print(f"fingerprint:   {cache.fingerprint}")
    print("clear with:    awg-repro cache --clear "
          "(or delete the directory)")
    return 0


def _run_replay(opts, parser) -> int:
    """Re-run a repro bundle (cell or litmus) and verify its failure
    reproduces."""
    import json

    from repro.errors import ConfigError
    from repro.recovery.bundle import (
        load_bundle, replay_bundle, request_type,
    )

    if len(opts.args) != 1:
        parser.error("replay needs BUNDLE")
    bundle = load_bundle(opts.args[0])
    try:
        report = replay_bundle(bundle, trace=opts.trace)
    except ConfigError as exc:
        parser.error(str(exc))
    stem = request_type(bundle["kind"]).bundle_stem(bundle["request"])
    print(f"replaying {stem} — expecting {report['expected']['mode']}")
    if opts.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    if opts.trace and opts.out:
        from repro.trace.export import write_chrome_trace

        trace = (report["observed"].get("result") or {}).get("trace")
        if trace is not None:
            write_chrome_trace(trace, opts.out)
            print(f"  wrote trace to {opts.out}")
    if report["reproduced"]:
        print(f"REPRODUCED: observed {report['observed']['mode']} matches "
              f"the recorded failure")
        return 0
    observed = {k: v for k, v in report["observed"].items()
                if k != "result"}
    print(f"NOT reproduced: observed {observed}, "
          f"expected {report['expected']} "
          f"(code fingerprint in bundle provenance: "
          f"{bundle['provenance'].get('fingerprint')})", file=sys.stderr)
    return 1


def _run_shrink(opts, parser) -> int:
    """Delta-debug a repro bundle (cell or litmus) down to a minimal
    failing request."""
    from pathlib import Path

    from repro.recovery.bundle import load_bundle, write_bundle
    from repro.recovery.shrink import shrink_bundle

    if len(opts.args) != 1:
        parser.error("shrink needs BUNDLE")
    source = Path(opts.args[0])
    bundle = load_bundle(source)
    result = shrink_bundle(bundle)
    print(result.render())
    out_dir = Path(opts.out) if opts.out else source.parent
    path = write_bundle(result.minimal, out_dir)
    print(f"minimal bundle: {path}")
    return 0


def _run_faults(opts, **matrix_kw) -> int:
    from repro.experiments import faults_campaign
    from repro.faults.plan import named_plan

    plans = None
    if opts.plans:
        plans = [named_plan(name.strip(), seed=opts.seed)
                 for name in opts.plans.split(",") if name.strip()]
    started = time.time()
    result = faults_campaign.run(
        seed=opts.seed, smoke=opts.quick, plans=plans,
        bundle_dir=opts.bundles, shrink=opts.shrink,
        **matrix_kw,
    )
    print(result.render())
    print(f"[faults: {time.time() - started:.1f}s]")
    if not result.ok:
        print(f"FAILED: {len(result.violations)} IFP-contract violation(s)",
              file=sys.stderr)
        for path in result.bundles:
            print(f"  repro bundle: {path}", file=sys.stderr)
        return 1
    return 0


def _run_litmus_command(opts, parser) -> int:
    """Progress-model litmus harness: run the corpus + generated
    programs across policies, judge each observed schedule against the
    OBE/Linear/IFP specs, cross-check the static expectations, and
    bundle/shrink any violation (see README "Litmus testing")."""
    import json

    from repro.analysis.specs import table_policies
    from repro.litmus.corpus import litmus_corpus
    from repro.litmus.generate import random_corpus
    from repro.litmus.oracle import golden_policies, run_corpus
    from repro.litmus.shrinklink import violation_bundles
    from repro.recovery.shrink import write_violation_bundles

    sub = opts.args[0] if opts.args else "run"
    count = opts.programs if opts.programs is not None else (
        4 if opts.quick else 8)

    if sub == "generate":
        programs = random_corpus(opts.seed, count=count)
        text = json.dumps([p.spec() for p in programs], indent=2,
                          sort_keys=True)
        if opts.out:
            Path(opts.out).write_text(text + "\n")
            print(f"wrote {len(programs)} canonical programs to "
                  f"{opts.out} (seed {opts.seed})")
        else:
            print(text)
        return 0

    if sub != "run":
        parser.error(f"unknown litmus subcommand {sub!r}; expected "
                     "run or generate (replay/shrink take any bundle: "
                     "`replay BUNDLE`, `shrink BUNDLE`)")

    started = time.time()
    corpus = litmus_corpus()
    known = {p.name for p in corpus}
    generated = [p for p in random_corpus(opts.seed, count=count)
                 if p.name not in known]
    policies = golden_policies() if opts.quick else table_policies()
    report = run_corpus(corpus + generated, policies, seed=opts.seed)
    if opts.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
        print(f"[litmus: {len(corpus)} corpus + {len(generated)} "
              f"generated programs, seed {opts.seed}, "
              f"{time.time() - started:.1f}s]")
    rc = 0
    if report.contract_violations:
        print(f"FAILED: {len(report.contract_violations)} "
              "litmus contract violation(s)", file=sys.stderr)
        if opts.bundles:
            for path in write_violation_bundles(
                    violation_bundles(report, seed=opts.seed),
                    opts.bundles, shrink=opts.shrink):
                print(f"  repro bundle: {path}", file=sys.stderr)
        rc = 1
    if not report.models_distinguishable():
        print("FAILED: no program distinguishes OBE from IFP — the "
              "models judged every schedule identically", file=sys.stderr)
        rc = 1
    return rc


def _run_analyze(opts) -> int:
    """Static progress table: build and render."""
    import json

    from repro.analysis.analyzer import build_report

    report = build_report(opts.args or None)
    if opts.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif opts.dot:
        print(report.render_dot())
    else:
        print(report.render_table())
    return 0


def _run_cell(opts, parser) -> int:
    """``run BENCHMARK [POLICY]``: one benchmark under one policy
    (default AWG) at the scale ``--quick``/``--oversubscribed`` name,
    with ``--seed`` as the scenario seed. Plain ``run`` validates the
    final memory state; ``--sanitize`` and ``--trace`` skip that check
    and attach the sync sanitizer or the structured tracer instead."""
    if not 1 <= len(opts.args) <= 2:
        parser.error("run needs BENCHMARK [POLICY]")
    if opts.sanitize and opts.trace:
        parser.error("run takes --sanitize or --trace, not both")
    bench = opts.args[0]
    policy = named_policy(opts.args[1] if len(opts.args) == 2 else "awg")
    if opts.quick:
        scenario = QUICK_OVERSUBSCRIBED if opts.oversubscribed else QUICK_SCALE
    else:
        scenario = OVERSUBSCRIBED if opts.oversubscribed else PAPER_SCALE
    scenario = scenario.scaled(seed=opts.seed)
    if opts.sanitize:
        return _report_sanitized(bench, policy, scenario, opts.json)
    if opts.trace:
        return _report_traced(bench, policy, scenario, opts)
    res = run_benchmark(bench, policy, scenario)
    print(_headline(res))
    print(f"  cycles:           {res.cycles:,}")
    print(f"  atomics:          {res.atomics:,}")
    print(f"  context switches: {res.context_switches:,}")
    print(f"  WG running/waiting cycles: "
          f"{res.wg_running_cycles:,} / {res.wg_waiting_cycles:,}")
    return 0 if res.ok else 1


def _headline(res) -> str:
    status = "completed" if res.ok else f"DEADLOCK ({res.reason})"
    return f"{res.benchmark} under {res.policy} [{res.scenario}]: {status}"


def _report_sanitized(bench, policy, scenario, json_out: bool) -> int:
    """Run with the dynamic sync sanitizer attached; exit 1 on a race,
    a lock error or a run that did not complete."""
    import json

    res = run_benchmark(
        bench, policy, scenario, validate=False, keep_gpu=True,
        config_overrides={"sanitize": True},
    )
    sanitizer = res.gpu.sanitizer
    report = sanitizer.report()
    report.update(benchmark=bench, policy=res.policy, scenario=res.scenario,
                  completed=res.completed, deadlocked=res.deadlocked)
    if json_out:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_headline(res))
        print(sanitizer.render())
    clean = res.ok and not report["races"] and not report["lock_errors"]
    return 0 if clean else 1


def _report_traced(bench, policy, scenario, opts) -> int:
    """Run with structured tracing on and export the Chrome/Perfetto
    trace_event JSON (see README "Tracing"); exit 1 on an invalid
    export."""
    from repro.trace.config import TraceConfig
    from repro.trace.export import validate_chrome_trace, write_chrome_trace

    trace_cfg = TraceConfig.parse(opts.categories or "all")
    res = run_benchmark(
        bench, policy, scenario, validate=False,
        config_overrides={"trace": trace_cfg},
    )
    out = opts.out or "trace.json"
    write_chrome_trace(res.trace, out)
    problems = validate_chrome_trace(res.trace)
    print(f"{_headline(res)} in {res.cycles:,} cycles")
    sidecar = res.trace["awg"]
    print(f"  categories: {','.join(sidecar['categories'])}")
    print(f"  events:     {sidecar['recorded']:,} recorded, "
          f"{sidecar['dropped']:,} dropped (ring bound "
          f"{trace_cfg.buffer_size:,})")
    print(f"  wrote {out} — open at https://ui.perfetto.dev "
          f"or chrome://tracing")
    if problems:
        print(f"INVALID trace ({len(problems)} schema problem(s)):",
              file=sys.stderr)
        for problem in problems[:10]:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    return 0


def _run_timeline() -> None:
    from repro.core.policies import awg, monnr_all, monnr_one, timeout
    from repro.experiments.timeline import render_timeline, trace_run

    for policy in (timeout(20_000), monnr_all(), monnr_one(), awg()):
        gpu, outcome = trace_run(policy)
        status = "completed" if outcome.ok else f"DEADLOCK ({outcome.reason})"
        print(f"=== {policy.name} — {status} in {outcome.cycles:,} cycles ===")
        print(render_timeline(gpu, width=90))
        print()


def _run_experiment(name: str, quick: bool, chart: bool = False,
                    out: Optional[str] = None, **kw) -> bool:
    """Run and print one artifact; with ``out``, also write its table to
    ``out/<name>.txt`` (without the host-dependent matrix note). Unless
    ``quick``, run its shape check; a failed check is reported on
    stderr and returns False."""
    artifact = ARTIFACTS[name]
    args = (artifact.quick,) if quick and artifact.quick else ()
    started = time.time()
    result = artifact.run(*args, **(kw if artifact.sweeps else {}))
    text = result.render()
    if chart:
        from repro.experiments.charts import LOG_SCALE_EXPERIMENTS, bar_chart
        print(bar_chart(result, log=name in LOG_SCALE_EXPERIMENTS))
    else:
        print(text)
    print(f"[{name}: {time.time() - started:.1f}s]\n")
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        kept = [line for line in text.splitlines()
                if not line.startswith("note: matrix:")]
        (Path(out) / f"{name}.txt").write_text("\n".join(kept) + "\n")
    if quick:
        return True
    try:
        artifact.check(result)
    except AssertionError as exc:
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        detail = f" ({exc})" if str(exc) else ""
        print(f"FAILED {name} shape check: {where.line}{detail}",
              file=sys.stderr)
        return False
    return True


def _run_artifacts(names, opts, matrix_kw) -> int:
    passed = [_run_experiment(name, opts.quick, opts.chart, opts.out,
                              **matrix_kw) for name in names]
    return 0 if all(passed) else 1


def main(argv=None) -> int:
    """Dispatch one command; SIGINT/SIGTERM during a sweep exits with
    the conventional 128+signum (re-running the command resumes from
    the result cache)."""
    from repro.experiments.matrix import SweepInterrupted

    try:
        return _dispatch(argv)
    except SweepInterrupted as exc:
        print(f"\n{exc}", file=sys.stderr)
        return 128 + exc.signum


def _dispatch(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="awg-repro",
        description="Reproduce 'Independent Forward Progress of "
                    "Work-groups' (ISCA 2020)",
    )
    parser.add_argument(
        "command",
        help="an experiment id (" + ", ".join(EXPERIMENTS) + ") or one "
             "of: " + ", ".join(COMMANDS),
    )
    parser.add_argument("args", nargs="*",
                        help="for 'run': BENCHMARK [POLICY] (default "
                             "policy: awg); for 'lint': paths; for "
                             "'analyze': benchmarks (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="small-scale configuration; for 'faults': "
                             "two-benchmark campaign; for 'litmus': "
                             "golden policies + small corpus")
    parser.add_argument("--seed", type=int, default=1, metavar="N",
                        help="for 'run': the scenario seed; for "
                             "'faults'/'litmus': root seed for fault "
                             "plans / program generation")
    parser.add_argument("--plans", default=None, metavar="A,B,...",
                        help="for 'faults': comma-separated plan names "
                             "(default: all named plans)")
    parser.add_argument("--chart", action="store_true",
                        help="render figures as ASCII bar charts")
    parser.add_argument("--oversubscribed", action="store_true",
                        help="for 'run': inject the resource-loss event "
                             "(with --quick: quick-oversubscribed scale)")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="parallel simulation workers (default: "
                             "$REPRO_JOBS or cpu count; 1 = in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--clear", action="store_true",
                        help="for 'cache': delete every cached result")
    parser.add_argument("--trace", action="store_true",
                        help="for 'run' and 'replay' of a cell bundle: "
                             "trace the run (write the Chrome/Perfetto "
                             "trace with --out)")
    parser.add_argument("--sanitize", action="store_true",
                        help="for 'run': attach the dynamic sync "
                             "sanitizer; exit 1 on a race or lock error")
    parser.add_argument("--bundles", default=None, metavar="DIR",
                        help="for 'faults'/'litmus': write a repro "
                             "bundle per violating cell into DIR")
    parser.add_argument("--shrink", action="store_true",
                        help="for 'faults'/'litmus': also minimize each "
                             "emitted bundle (delta debugging)")
    parser.add_argument("--json", action="store_true",
                        help="for 'lint'/'analyze'/'run --sanitize': "
                             "machine-readable output")
    parser.add_argument("--format", default=None, dest="fmt",
                        choices=("text", "json", "github"),
                        help="for 'lint': output format (github emits "
                             "GitHub Actions ::error annotations)")
    parser.add_argument("--dot", action="store_true",
                        help="for 'analyze': GraphViz wait-for graphs")
    parser.add_argument("--categories", default=None, metavar="A,B,...",
                        help="for 'run --trace': comma-separated event "
                             "categories (default: all; see repro.trace)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="for 'run --trace': output path for the Chrome "
                             "trace_event JSON (default: trace.json); for "
                             "an experiment id, 'ablations' or 'all': "
                             "directory to write each rendered table to "
                             "as <name>.txt")
    parser.add_argument("--programs", type=int, default=None, metavar="N",
                        help="for 'litmus': generated programs per run "
                             "(default: 4 with --quick, else 8)")
    # intermixed: allows `lint --json PATH...` (flags before positionals)
    opts = parser.parse_intermixed_args(argv)
    matrix_kw = {
        "jobs": opts.jobs,
        "cache": None if opts.no_cache else "default",
    }

    if opts.command == "list":
        from repro.faults.plan import plan_names

        print("experiments:", ", ".join(EXPERIMENTS))
        print("commands:   ", ", ".join(COMMANDS))
        print("benchmarks: ", ", ".join(benchmark_names()))
        print("policies:   ", ", ".join(all_policy_names()))
        print("fault plans:", ", ".join(plan_names()))
        return 0

    if opts.command == "lint":
        from repro.analysis.linter import run_lint

        return run_lint(opts.args, json_out=opts.json, fmt=opts.fmt)

    if opts.command == "analyze":
        return _run_analyze(opts)

    if opts.command == "faults":
        return _run_faults(opts, **matrix_kw)

    if opts.command == "cache":
        return _run_cache_command(opts.clear)

    if opts.command == "litmus":
        return _run_litmus_command(opts, parser)

    if opts.command == "replay":
        return _run_replay(opts, parser)

    if opts.command == "shrink":
        return _run_shrink(opts, parser)

    if opts.command == "all":
        return _run_artifacts(ARTIFACTS, opts, matrix_kw)

    if opts.command == "ablations":
        return _run_artifacts(ABLATIONS, opts, matrix_kw)

    if opts.command == "timeline":
        _run_timeline()
        return 0

    if opts.command == "run":
        return _run_cell(opts, parser)

    if opts.command in EXPERIMENTS:
        return _run_artifacts([opts.command], opts, matrix_kw)

    parser.error(f"unknown command {opts.command!r}")
    return 2  # pragma: no cover
