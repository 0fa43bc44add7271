"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    awg-repro list                  # available experiments / benchmarks
    awg-repro table1                # print Table 1
    awg-repro fig14                 # regenerate Figure 14 (headline)
    awg-repro fig14 --quick         # small-scale smoke version
    awg-repro fig14 --jobs 8        # fan cells over 8 worker processes
    awg-repro fig14 --no-cache      # force re-simulation of every cell
    awg-repro run SPM_G awg         # one benchmark under one policy
    awg-repro all                   # every table, figure and ablation,
                                    # each checked against the paper's shape
    awg-repro all --out results     # ... also writing results/<name>.txt
    awg-repro faults --smoke        # fault-injection campaign (IFP table)
    awg-repro faults --seed 7 --plans storm,chaos
    awg-repro cache                 # show result-cache location / size
    awg-repro cache --clear         # drop every cached result
    awg-repro cache --verify        # integrity sweep; quarantine corrupt
    awg-repro matrix --list         # checkpointed sweeps awaiting resume
    awg-repro matrix --resume       # finish the newest interrupted sweep
    awg-repro matrix --resume KEY   # ... or one sweep by key prefix
    awg-repro replay BUNDLE         # re-run a cell or litmus bundle
    awg-repro shrink BUNDLE         # delta-debug either kind to minimal
    awg-repro faults --bundles DIR --shrink   # bundle + minimize violations
    awg-repro lint                  # static kernel linter (default paths)
    awg-repro lint --json src/repro/workloads
    awg-repro lint --format=github  # CI annotations (::error file=...)
    awg-repro analyze               # static progress table (12x8 verdicts)
    awg-repro analyze SLM_G --json  # one benchmark, machine-readable
    awg-repro analyze --dot         # role wait-for graphs (GraphViz)
    awg-repro analyze --golden analysis-table.json       # CI diff
    awg-repro analyze --write-golden analysis-table.json # re-baseline
    awg-repro analyze --crosscheck  # static vs dynamic vs DESIGN.md
    awg-repro sanitize SPM_G awg    # dynamic race detection run
    awg-repro sanitize _RACY        # the seeded-race drill (exits 1)
    awg-repro trace FAM_G awg --out t.json   # Chrome/Perfetto trace
    awg-repro trace SPM_G --quick --categories wg,sync,dispatch
    awg-repro litmus run --smoke    # corpus + generated programs, judged
    awg-repro litmus run --seed 7 --programs 16      # wider random sweep
    awg-repro litmus generate --seed 3 --out progs.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from repro.core.policies import named_policy
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
    "matrix", "replay", "shrink", "lint", "analyze", "sanitize", "trace",
    "litmus",
)


def _run_cache_command(clear: bool, verify: bool = False) -> int:
    cache = ResultCache(default_cache_dir())
    if clear:
        removed = cache.clear()
        print(f"cleared {removed} cached results from {cache.root}")
        return 0
    if verify:
        report = cache.verify(quarantine=True)
        print(report.render())
        return 0 if report.clean else 1
    print(f"cache dir:     {cache.root}")
    print(f"entries:       {cache.entry_count()}")
    print(f"fingerprint:   {cache.fingerprint}")
    print("clear with:    awg-repro cache --clear "
          "(or delete the directory)")
    print("verify with:   awg-repro cache --verify")
    return 0


def _run_matrix_command(opts, parser, matrix_kw) -> int:
    """Inspect / resume / clear checkpointed sweeps."""
    from repro.experiments.matrix import RunRequest, run_matrix
    from repro.recovery.manifest import (
        default_checkpoint_dir, list_manifests, load_manifest,
    )

    root = default_checkpoint_dir()
    manifests = list_manifests(root)
    if opts.clear:
        import shutil

        if root.is_dir():
            shutil.rmtree(root)
        print(f"cleared {len(manifests)} checkpoint manifest(s) from {root}")
        return 0
    if not opts.resume:
        print(f"checkpoint dir: {root}")
        if not manifests:
            print("no interrupted sweeps (checkpointed sweeps delete "
                  "their manifest on completion)")
            return 0
        for m in manifests:
            print(f"  {m['sweep_key']}: {m['completed']}/{m['total']} "
                  f"cells done (fingerprint {m['fingerprint']})")
        print("resume with:    awg-repro matrix --resume [KEY]")
        return 0
    if opts.args:
        document = load_manifest(opts.args[0], root)
    elif manifests:
        document = load_manifest(manifests[0]["sweep_key"], root)
    else:
        print(f"nothing to resume under {root}", file=sys.stderr)
        return 1
    requests = [RunRequest.from_spec(cell["spec"])
                for cell in document["cells"]]
    print(f"resuming sweep {document['sweep_key']}: "
          f"{len(document.get('completed', {}))}/{len(requests)} cells "
          f"already done")
    result = run_matrix(requests, checkpoint=root, **matrix_kw)
    print(result.summary())
    for error in result.errors:
        print(f"  FAILED {error.request.benchmark}/"
              f"{error.request.policy.name}: {error.failure['type']}: "
              f"{error.failure['message']}", file=sys.stderr)
    return 0 if not result.errors else 1


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
        seed=opts.seed, smoke=opts.smoke or opts.quick, plans=plans,
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
    from pathlib import Path

    from repro.analysis.specs import table_policies
    from repro.litmus.generate import random_corpus
    from repro.litmus.oracle import (
        compare_golden_entry, golden_entry, golden_policies, run_corpus,
    )
    from repro.litmus.shrinklink import emit_violation_bundles
    from repro.workloads.litmus import litmus_corpus

    sub = opts.args[0] if opts.args else "run"

    if sub == "generate":
        programs = random_corpus(opts.seed, count=opts.programs or 8)
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
    count = opts.programs if opts.programs is not None else (
        4 if opts.smoke else 8)
    known = {p.name for p in corpus}
    generated = [p for p in random_corpus(opts.seed, count=count)
                 if p.name not in known]
    policies = golden_policies() if opts.smoke else table_policies()
    report = run_corpus(corpus + generated, policies, seed=opts.seed)
    if opts.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
        print(f"[litmus: {len(corpus)} corpus + {len(generated)} "
              f"generated programs, seed {opts.seed}, "
              f"{time.time() - started:.1f}s]")
    rc = 0
    golden_dir = Path("tests/golden/litmus")
    if opts.smoke and golden_dir.is_dir():
        diffs = []
        for program in corpus:
            path = golden_dir / f"{program.alias}.json"
            if not path.is_file():
                diffs.append(f"{program.alias}: no golden file {path}")
                continue
            diffs.extend(compare_golden_entry(
                golden_entry(report, program),
                json.loads(path.read_text())))
        if diffs:
            print(f"litmus golden drift ({len(diffs)} diff(s)):",
                  file=sys.stderr)
            for diff in diffs:
                print(f"  - {diff}", file=sys.stderr)
            print("re-baseline with: REPRO_UPDATE_GOLDENS=1 "
                  "python -m pytest tests/litmus/test_golden_corpus.py",
                  file=sys.stderr)
            rc = 1
        else:
            print(f"golden corpus matches {golden_dir} "
                  f"({len(corpus)} programs)")
    if report.contract_violations:
        print(f"FAILED: {len(report.contract_violations)} "
              "litmus contract violation(s)", file=sys.stderr)
        if opts.bundles:
            for path in emit_violation_bundles(
                    report, opts.bundles, seed=opts.seed,
                    shrink=opts.shrink):
                print(f"  repro bundle: {path}", file=sys.stderr)
        rc = 1
    if not report.models_distinguishable():
        print("FAILED: no program distinguishes OBE from IFP — the "
              "models judged every schedule identically", file=sys.stderr)
        rc = 1
    return rc


def _run_sanitize(opts, parser) -> int:
    """Run one benchmark with the dynamic sync sanitizer attached."""
    import json

    if not 1 <= len(opts.args) <= 2:
        parser.error("sanitize needs BENCHMARK [POLICY]")
    bench = opts.args[0]
    policy_name = opts.args[1] if len(opts.args) == 2 else "awg"
    scenario = QUICK_SCALE if opts.quick else PAPER_SCALE
    res = run_benchmark(
        bench, named_policy(policy_name), scenario,
        validate=False, keep_gpu=True,
        config_overrides={"sanitize": True, "seed": opts.seed},
    )
    sanitizer = res.gpu.sanitizer
    report = sanitizer.report()
    report["benchmark"] = bench
    report["policy"] = res.policy
    report["scenario"] = scenario.label
    report["completed"] = res.completed
    report["deadlocked"] = res.deadlocked
    if opts.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        status = "completed" if res.ok else f"DEADLOCK ({res.reason})"
        print(f"{bench} under {res.policy} [{scenario.label}]: {status}")
        print(sanitizer.render())
    clean = res.ok and not report["races"] and not report["lock_errors"]
    return 0 if clean else 1


def _run_analyze(opts) -> int:
    """Static progress table: build, render, golden-diff, cross-check."""
    import json

    from repro.analysis.analyzer import (
        build_report, compare_golden, run_crosscheck, write_golden,
    )

    report = build_report(opts.args or None)
    if opts.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif opts.dot:
        print(report.render_dot())
    else:
        print(report.render_table())
    if opts.write_golden:
        write_golden(report, opts.write_golden)
        print(f"wrote golden table to {opts.write_golden}")
        return 0
    rc = 0
    if opts.golden:
        diffs = compare_golden(report, opts.golden)
        if diffs:
            print(f"golden table drift vs {opts.golden} "
                  f"({len(diffs)} cell(s)):", file=sys.stderr)
            for diff in diffs:
                print(f"  - {diff}", file=sys.stderr)
            print("re-baseline with: python -m repro analyze "
                  f"--write-golden {opts.golden}", file=sys.stderr)
            rc = 1
        else:
            print(f"golden table matches {opts.golden}")
    if opts.crosscheck:
        result = run_crosscheck(report)
        print(result.render())
        if not result.ok:
            rc = 1
    return rc


def _run_trace(opts, parser) -> int:
    """Run one benchmark with structured tracing on and export the
    Chrome/Perfetto trace_event JSON (see README "Tracing")."""
    from repro.trace.config import TraceConfig
    from repro.trace.export import validate_chrome_trace, write_chrome_trace

    if not 1 <= len(opts.args) <= 2:
        parser.error("trace needs BENCHMARK [POLICY]")
    bench = opts.args[0]
    policy_name = opts.args[1] if len(opts.args) == 2 else "awg"
    scenario = OVERSUBSCRIBED if opts.oversubscribed else PAPER_SCALE
    if opts.quick:
        scenario = QUICK_SCALE
    trace_cfg = TraceConfig.parse(opts.categories or "all")
    res = run_benchmark(
        bench, named_policy(policy_name), scenario,
        validate=False,
        config_overrides={"trace": trace_cfg, "seed": opts.seed},
    )
    out = opts.out or "trace.json"
    write_chrome_trace(res.trace, out)
    problems = validate_chrome_trace(res.trace)
    status = "completed" if res.ok else f"DEADLOCK ({res.reason})"
    print(f"{bench} under {res.policy} [{scenario.label}]: {status} "
          f"in {res.cycles:,} cycles")
    sidecar = res.trace["awg"]
    print(f"  categories: {','.join(sidecar['categories'])}")
    print(f"  events:     {sidecar['recorded']:,} recorded, "
          f"{sidecar['dropped']:,} dropped (ring bound "
          f"{trace_cfg.buffer_size:,})")
    for key in sorted(res.stats):
        if key.startswith("trace.") and not key.startswith("trace.count."):
            print(f"  {key}: {res.stats[key]:,.0f}")
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
    """Dispatch one command; SIGINT/SIGTERM during a checkpointed sweep
    exits with the conventional 128+signum after the manifest flush (the
    sweep is resumable via ``matrix --resume`` or by re-running)."""
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
                        help="for 'run': BENCHMARK POLICY; for 'lint': "
                             "paths; for 'analyze': benchmarks "
                             "(default: all); for 'sanitize'/'trace': "
                             "BENCHMARK [POLICY]")
    parser.add_argument("--quick", action="store_true",
                        help="small-scale smoke configuration")
    parser.add_argument("--smoke", action="store_true",
                        help="for 'faults': two-benchmark smoke campaign; "
                             "for 'litmus': golden policies + small corpus")
    parser.add_argument("--seed", type=int, default=1, metavar="N",
                        help="for 'faults'/'litmus': root seed for fault "
                             "plans / program generation")
    parser.add_argument("--plans", default=None, metavar="A,B,...",
                        help="for 'faults': comma-separated plan names "
                             "(default: all named plans)")
    parser.add_argument("--chart", action="store_true",
                        help="render figures as ASCII bar charts")
    parser.add_argument("--oversubscribed", action="store_true",
                        help="for 'run': inject the resource-loss event")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="parallel simulation workers (default: "
                             "$REPRO_JOBS or cpu count; 1 = in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--clear", action="store_true",
                        help="for 'cache'/'matrix': delete every cached "
                             "result / checkpoint manifest")
    parser.add_argument("--verify", action="store_true",
                        help="for 'cache': re-hash every entry and "
                             "quarantine corrupt ones (exit 1 if any)")
    parser.add_argument("--list", action="store_true", dest="list_",
                        help="for 'matrix': list interrupted sweeps")
    parser.add_argument("--resume", action="store_true",
                        help="for 'matrix': resume an interrupted sweep "
                             "(newest, or the KEY positional)")
    parser.add_argument("--trace", action="store_true",
                        help="for 'replay' of a cell bundle: re-run with "
                             "structured tracing on (write with --out)")
    parser.add_argument("--bundles", default=None, metavar="DIR",
                        help="for 'faults'/'litmus': write a repro "
                             "bundle per violating cell into DIR")
    parser.add_argument("--shrink", action="store_true",
                        help="for 'faults'/'litmus': also minimize each "
                             "emitted bundle (delta debugging)")
    parser.add_argument("--json", action="store_true",
                        help="for 'lint'/'sanitize'/'analyze': "
                             "machine-readable output")
    parser.add_argument("--format", default=None, dest="fmt",
                        choices=("text", "json", "github"),
                        help="for 'lint': output format (github emits "
                             "GitHub Actions ::error annotations)")
    parser.add_argument("--table", action="store_true",
                        help="for 'analyze': ASCII verdict table "
                             "(the default)")
    parser.add_argument("--dot", action="store_true",
                        help="for 'analyze': GraphViz wait-for graphs")
    parser.add_argument("--crosscheck", action="store_true",
                        help="for 'analyze': replay the differential "
                             "scenario dynamically and fail on any "
                             "unsound static verdict")
    parser.add_argument("--golden", default=None, metavar="FILE",
                        help="for 'analyze': diff the table against a "
                             "committed golden file (exit 1 on drift)")
    parser.add_argument("--write-golden", default=None, metavar="FILE",
                        help="for 'analyze': (re)write the golden table "
                             "and exit 0")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="for 'lint': known-findings file; only new "
                             "findings fail the run")
    parser.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="for 'lint': record current findings as the "
                             "baseline and exit 0")
    parser.add_argument("--categories", default=None, metavar="A,B,...",
                        help="for 'trace': comma-separated event "
                             "categories (default: all; see repro.trace)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="for 'trace': output path for the Chrome "
                             "trace_event JSON (default: trace.json); for "
                             "an experiment id, 'ablations' or 'all': "
                             "directory to write each rendered table to "
                             "as <name>.txt")
    parser.add_argument("--programs", type=int, default=None, metavar="N",
                        help="for 'litmus': generated programs per run "
                             "(default: 4 with --smoke, else 8)")
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
        print("policies:    baseline, sleep, timeout, monrs-all, "
              "monr-all, monnr-all, monnr-one, awg, minresume")
        print("fault plans:", ", ".join(plan_names()))
        return 0

    if opts.command == "lint":
        from repro.analysis.linter import run_lint

        return run_lint(
            opts.args, json_out=opts.json,
            baseline_path=opts.baseline,
            write_baseline_path=opts.write_baseline,
            fmt=opts.fmt,
        )

    if opts.command == "analyze":
        return _run_analyze(opts)

    if opts.command == "sanitize":
        return _run_sanitize(opts, parser)

    if opts.command == "trace":
        return _run_trace(opts, parser)

    if opts.command == "faults":
        return _run_faults(opts, **matrix_kw)

    if opts.command == "cache":
        return _run_cache_command(opts.clear, opts.verify)

    if opts.command == "matrix":
        return _run_matrix_command(opts, parser, matrix_kw)

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
        if len(opts.args) != 2:
            parser.error("run needs BENCHMARK and POLICY")
        bench, policy_name = opts.args
        scenario = OVERSUBSCRIBED if opts.oversubscribed else PAPER_SCALE
        if opts.quick:
            scenario = QUICK_SCALE
        res = run_benchmark(bench, named_policy(policy_name), scenario)
        status = "completed" if res.ok else f"DEADLOCK ({res.reason})"
        print(f"{bench} under {res.policy} [{scenario.label}]: {status}")
        print(f"  cycles:           {res.cycles:,}")
        print(f"  atomics:          {res.atomics:,}")
        print(f"  context switches: {res.context_switches:,}")
        print(f"  WG running/waiting cycles: "
              f"{res.wg_running_cycles:,} / {res.wg_waiting_cycles:,}")
        return 0 if res.ok else 1

    if opts.command in EXPERIMENTS:
        return _run_artifacts([opts.command], opts, matrix_kw)

    parser.error(f"unknown command {opts.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
