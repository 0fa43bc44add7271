"""Command-line entry point: regenerate any table/figure of the paper.

Each command takes only its own flags (``awg-repro COMMAND --help``
lists them); any other flag is a usage error and exits 2. Usage::

    awg-repro list                  # experiments, commands, benchmarks, ...
    awg-repro fig14                 # regenerate Figure 14 (headline)
    awg-repro fig14 --quick --chart # smoke scale, as an ASCII bar chart
    awg-repro fig14 --jobs 8 --no-cache   # 8 workers, no result cache
    awg-repro all --out results     # every artifact, checked, into results/
    awg-repro timeline              # Figure 6 policy timelines
    awg-repro run SPM_G awg         # one benchmark under one policy
    awg-repro run SPM_G --quick --oversubscribed --seed 7
    awg-repro run _RACY --quick --sanitize --json   # race report (exits 1)
    awg-repro run SPM_G --quick --trace --categories wg,sync --out t.json
    awg-repro faults --quick --plans storm,chaos --bundles out --shrink
    awg-repro cache --clear         # drop every cached result
    awg-repro replay BUNDLE --trace --out t.json   # re-run a bundle
    awg-repro shrink BUNDLE --out DIR   # delta-debug it to minimal
    awg-repro lint --format=github  # static kernel linter, CI annotations
    awg-repro analyze SLM_G --json  # static progress table (--dot: graphs)
    awg-repro litmus run --quick --seed 7 --programs 16
    awg-repro litmus generate --seed 3 --out progs.json

``--seed`` is the scenario seed for ``run``, the fault plans' root seed
for ``faults`` and the program generator's seed for ``litmus``.

A sweep stopped by a crash, Ctrl-C or SIGTERM resumes by re-running the
same command: its completed cells are result-cache hits. With
``--no-cache`` a re-run starts over.

The committed goldens (stats, litmus verdicts, the static analysis
table) are checked, and re-baselined, by the tier-1 tests only.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from repro.core.policies import all_policy_names, named_policy
from repro.experiments import (
    QUICK_OVERSUBSCRIBED, QUICK_SCALE, PAPER_SCALE, OVERSUBSCRIBED,
    ExperimentResult, Scenario, run_benchmark,
)
from repro.experiments import (
    ablations, fig5, fig7, fig8, fig9, fig11, fig13, fig14, fig15, table1,
    table2,
)
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.workloads.registry import benchmark_names

class Artifact(NamedTuple):
    """One committed ``results/<name>.txt``. ``run()`` regenerates it at
    the committed scale and ``check`` asserts the paper's shape there.
    ``--quick`` passes ``quick`` to ``run`` instead and skips ``check``;
    an artifact without a smaller scale (``quick=None``) runs, and is
    checked, at its committed scale either way."""

    run: Callable[..., ExperimentResult]
    check: Callable[[ExperimentResult], None]
    quick: Optional[Scenario] = QUICK_SCALE
    #: ``run`` sweeps cells through run_matrix (takes jobs=, cache=)
    sweeps: bool = True

    def scale(self, quick: bool) -> tuple:
        """``run``'s positional arguments: ``(self.quick,)`` under
        ``--quick`` when there is a quick scale, else ``()``."""
        return (self.quick,) if quick and self.quick is not None else ()


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


def _run_list(opts) -> int:
    from repro.faults.plan import plan_names

    print("experiments:", ", ".join(EXPERIMENTS))
    print("commands:   ", ", ".join(opts.commands))
    print("benchmarks: ", ", ".join(benchmark_names()))
    print("policies:   ", ", ".join(all_policy_names()))
    print("fault plans:", ", ".join(plan_names()))
    return 0


def _run_cache_command(opts) -> int:
    cache = ResultCache(default_cache_dir())
    if opts.clear:
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.root}")
        return 0
    print(f"cache dir:     {cache.root}")
    print(f"entries:       {cache.entry_count()}")
    print(f"fingerprint:   {cache.fingerprint}")
    print("clear with:    awg-repro cache --clear "
          "(or delete the directory)")
    return 0


def _run_replay(opts) -> int:
    """Re-run a repro bundle (cell or litmus) and verify its failure
    reproduces."""
    import json

    from repro.errors import ConfigError
    from repro.recovery.bundle import (
        load_bundle, replay_bundle, request_type,
    )

    bundle = load_bundle(opts.bundle)
    try:
        report = replay_bundle(bundle, trace=opts.trace)
    except ConfigError as exc:
        opts.usage_error(str(exc))
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


def _run_shrink(opts) -> int:
    """Delta-debug a repro bundle (cell or litmus) down to a minimal
    failing request."""
    from repro.recovery.bundle import load_bundle, write_bundle
    from repro.recovery.shrink import shrink_bundle

    source = Path(opts.bundle)
    bundle = load_bundle(source)
    result = shrink_bundle(bundle)
    print(result.render())
    out_dir = Path(opts.out) if opts.out else source.parent
    path = write_bundle(result.minimal, out_dir)
    print(f"minimal bundle: {path}")
    return 0


def _run_faults(opts) -> int:
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
        **_matrix_kw(opts),
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


def _program_count(opts) -> int:
    if opts.programs is not None:
        return opts.programs
    return 4 if opts.quick else 8


def _generate_litmus(opts) -> int:
    """``litmus generate``: print (or write) seeded random programs in
    canonical JSON form."""
    import json

    from repro.litmus.generate import random_corpus

    programs = random_corpus(opts.seed, count=_program_count(opts))
    text = json.dumps([p.spec() for p in programs], indent=2,
                      sort_keys=True)
    if opts.out:
        Path(opts.out).write_text(text + "\n")
        print(f"wrote {len(programs)} canonical programs to "
              f"{opts.out} (seed {opts.seed})")
    else:
        print(text)
    return 0


def _run_litmus(opts) -> int:
    """``litmus run``: the progress-model litmus harness. Run the corpus
    + generated programs across policies, judge each observed schedule
    against the OBE/Linear/IFP specs, cross-check the static
    expectations, and bundle/shrink any violation (see README "Litmus
    testing")."""
    import json

    from repro.analysis.specs import table_policies
    from repro.litmus.corpus import litmus_corpus
    from repro.litmus.generate import random_corpus
    from repro.litmus.oracle import golden_policies, run_corpus
    from repro.litmus.shrinklink import violation_bundles
    from repro.recovery.shrink import write_violation_bundles

    started = time.time()
    corpus = litmus_corpus()
    known = {p.name for p in corpus}
    generated = [p for p in random_corpus(opts.seed,
                                          count=_program_count(opts))
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

    report = build_report(opts.benchmarks or None)
    if opts.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif opts.dot:
        print(report.render_dot())
    else:
        print(report.render_table())
    return 0


def _run_lint(opts) -> int:
    from repro.analysis.linter import run_lint

    return run_lint(opts.paths,
                    fmt=opts.fmt or ("json" if opts.json else "text"))


def _run_cell(opts) -> int:
    """``run BENCHMARK [POLICY]``: one benchmark under one policy
    (default AWG) at the scale ``--quick``/``--oversubscribed`` name,
    with ``--seed`` as the scenario seed. Plain ``run`` validates the
    final memory state; ``--sanitize`` and ``--trace`` skip that check
    and attach the sync sanitizer or the structured tracer instead."""
    bench = opts.benchmark
    policy = named_policy(opts.policy)
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
    from repro.trace.config import BUFFER_SIZE, TraceConfig
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
          f"{BUFFER_SIZE:,})")
    print(f"  wrote {out} — open at https://ui.perfetto.dev "
          f"or chrome://tracing")
    if problems:
        print(f"INVALID trace ({len(problems)} schema problem(s)):",
              file=sys.stderr)
        for problem in problems[:10]:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    return 0


def _run_timeline(opts) -> int:
    from repro.core.policies import awg, monnr_all, monnr_one, timeout
    from repro.experiments.timeline import render_timeline, trace_run

    for policy in (timeout(20_000), monnr_all(), monnr_one(), awg()):
        gpu, outcome = trace_run(policy)
        status = "completed" if outcome.ok else f"DEADLOCK ({outcome.reason})"
        print(f"=== {policy.name} — {status} in {outcome.cycles:,} cycles ===")
        print(render_timeline(gpu, width=90))
        print()
    return 0


def _run_experiment(name: str, quick: bool, chart: bool = False,
                    out: Optional[str] = None, **kw) -> bool:
    """Run and print one artifact; with ``out``, also write its table to
    ``out/<name>.txt`` (without the host-dependent matrix note). Unless
    a smaller scale ran, run its shape check; a failed check is reported
    on stderr and returns False."""
    artifact = ARTIFACTS[name]
    args = artifact.scale(quick)
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
    if args:
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


def _matrix_kw(opts) -> dict:
    """The sweep keywords of a command that declares ``--jobs`` and
    ``--no-cache``."""
    return {"jobs": opts.jobs, "cache": None if opts.no_cache else "default"}


def _run_artifacts(names, opts) -> int:
    kw = _matrix_kw(opts) if "jobs" in opts else {}
    passed = [_run_experiment(name, opts.quick, opts.chart, opts.out, **kw)
              for name in names]
    return 0 if all(passed) else 1


def _parser() -> argparse.ArgumentParser:
    """One subcommand per command; each declares only the flags its
    handler reads, so any other flag is a usage error (exit 2)."""
    def flags(*names, **kw) -> argparse.ArgumentParser:
        group = argparse.ArgumentParser(add_help=False)
        group.add_argument(*names, **kw)
        return group

    quick = flags("--quick", action="store_true",
                  help="small-scale configuration (seconds, not minutes)")
    seed = flags("--seed", type=int, default=1, metavar="N",
                 help="seed (default: 1)")
    as_json = flags("--json", action="store_true",
                    help="machine-readable output")
    programs = flags("--programs", type=int, default=None, metavar="N",
                     help="generated programs (default: 4 with --quick, "
                          "else 8)")
    matrix = flags("--jobs", "-j", type=int, default=None, metavar="N",
                   help="worker processes (default: $REPRO_JOBS or the "
                        "CPU count; 1 = in-process)")
    matrix.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    bundles = flags("--bundles", default=None, metavar="DIR",
                    help="write a repro bundle per violation into DIR")
    bundles.add_argument("--shrink", action="store_true",
                         help="also minimize each bundle")
    report = flags("--chart", action="store_true",
                   help="render figures as ASCII bar charts")
    report.add_argument("--out", default=None, metavar="DIR",
                        help="also write each table to DIR/<name>.txt")

    parser = argparse.ArgumentParser(
        prog="awg-repro",
        description="Reproduce 'Independent Forward Progress of "
                    "Work-groups' (ISCA 2020). `awg-repro COMMAND --help` "
                    "lists a command's flags.")
    sub = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, func, help, *parents, under=sub):
        cmd = under.add_parser(name, help=help, description=help,
                               parents=parents)
        cmd.set_defaults(func=func, usage_error=cmd.error)
        return cmd

    for name, artifact in EXPERIMENTS.items():
        command(name, partial(_run_artifacts, [name]),
                f"regenerate {name}, checked against the paper's shape",
                quick, report, *([matrix] if artifact.sweeps else []))
    command("list", _run_list, "what the other commands can name")
    command("all", partial(_run_artifacts, ARTIFACTS),
            "every table, figure and ablation", quick, report, matrix)
    run = command("run", _run_cell, "one benchmark under one policy "
                  "(--seed: the scenario seed)", quick, seed, as_json)
    run.add_argument("benchmark", metavar="BENCHMARK")
    run.add_argument("policy", nargs="?", default="awg", metavar="POLICY")
    run.add_argument("--oversubscribed", action="store_true",
                     help="inject the resource-loss event")
    mode = run.add_mutually_exclusive_group()
    mode.add_argument("--sanitize", action="store_true",
                      help="attach the sync sanitizer; exit 1 on a race")
    mode.add_argument("--trace", action="store_true",
                      help="write a Chrome/Perfetto trace")
    run.add_argument("--categories", default=None, metavar="A,B,...",
                     help="trace categories (default: all)")
    run.add_argument("--out", default=None, metavar="PATH",
                     help="trace path (default: trace.json)")
    command("ablations", partial(_run_artifacts, ABLATIONS),
            "the design-choice ablations", quick, report, matrix)
    command("timeline", _run_timeline, "Figure 6 policy timelines")
    faults = command("faults", _run_faults, "fault-injection campaign "
                     "(--seed: the plans' root seed)",
                     quick, seed, matrix, bundles)
    faults.add_argument("--plans", default=None, metavar="A,B,...",
                        help="fault plans (default: all)")
    cache = command("cache", _run_cache_command, "show the result cache")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached result")
    replay = command("replay", _run_replay, "re-run a repro bundle", as_json)
    replay.add_argument("bundle", metavar="BUNDLE")
    replay.add_argument("--trace", action="store_true",
                        help="trace a replayed cell")
    replay.add_argument("--out", default=None, metavar="PATH",
                        help="trace path")
    shrink = command("shrink", _run_shrink, "minimize a repro bundle")
    shrink.add_argument("bundle", metavar="BUNDLE")
    shrink.add_argument("--out", default=None, metavar="DIR",
                        help="default: beside BUNDLE")
    lint = command("lint", _run_lint, "static kernel linter", as_json)
    lint.add_argument("paths", nargs="*", metavar="PATH")
    lint.add_argument("--format", default=None, dest="fmt",
                      choices=("text", "github"))
    analyze = command("analyze", _run_analyze, "static progress table",
                      as_json)
    analyze.add_argument("benchmarks", nargs="*", metavar="BENCHMARK")
    analyze.add_argument("--dot", action="store_true",
                         help="GraphViz role wait-for graphs")
    litmus = sub.add_parser("litmus", help="progress-model litmus harness")
    litmus_sub = litmus.add_subparsers(metavar="SUBCOMMAND", required=True)
    command("run", _run_litmus, "judge the corpus and generated programs",
            quick, seed, programs, as_json, bundles, under=litmus_sub)
    generate = command("generate", _generate_litmus,
                       "print generated programs", quick, seed, programs,
                       under=litmus_sub)
    generate.add_argument("--out", default=None, metavar="PATH",
                          help="write them to PATH")
    sub.choices["list"].set_defaults(
        commands=[name for name in sub.choices if name not in EXPERIMENTS])
    return parser


def _interrupt(signum, _frame):
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    """Run one command. SIGTERM unwinds it as Ctrl-C does (a sweep kills
    its pool's workers on the way out), and either signal exits with
    the conventional 128+signum after one stderr line that, for a
    sweeping command, says whether a re-run resumes."""
    opts, extra = _parser().parse_known_args(argv)
    if extra:  # name the command whose flags these are not
        opts.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        return opts.func(opts)
    except KeyboardInterrupt as exc:
        signum = exc.args[0] if exc.args else signal.SIGINT
        note = f"interrupted by {signal.Signals(signum).name}"
        if hasattr(opts, "no_cache"):  # the command sweeps cells
            note += ("; a re-run starts over" if opts.no_cache
                     else "; a re-run resumes from the result cache")
        print(f"\n{note}", file=sys.stderr)
        return 128 + signum
    finally:
        signal.signal(signal.SIGTERM, previous)
