"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    awg-repro list                  # available experiments / benchmarks
    awg-repro table1                # print Table 1
    awg-repro fig14                 # regenerate Figure 14 (headline)
    awg-repro fig14 --quick         # small-scale smoke version
    awg-repro fig14 --jobs 8        # fan cells over 8 worker processes
    awg-repro fig14 --no-cache      # force re-simulation of every cell
    awg-repro run SPM_G awg         # one benchmark under one policy
    awg-repro all                   # every experiment, in paper order
    awg-repro faults --smoke        # fault-injection campaign (IFP table)
    awg-repro faults --seed 7 --plans storm,chaos
    awg-repro cache                 # show result-cache location / size
    awg-repro cache --clear         # drop every cached result
    awg-repro cache --verify        # integrity sweep; quarantine corrupt
    awg-repro matrix --list         # checkpointed sweeps awaiting resume
    awg-repro matrix --resume       # finish the newest interrupted sweep
    awg-repro matrix --resume KEY   # ... or one sweep by key prefix
    awg-repro replay BUNDLE         # re-run a repro bundle's failure
    awg-repro shrink BUNDLE         # delta-debug a bundle to minimal form
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
    awg-repro litmus replay BUNDLE  # re-run one violating litmus cell
    awg-repro litmus shrink BUNDLE  # minimize a violating litmus program
    awg-repro fabric run SPM_G FAM_G --workers 4     # leased worker fleet
    awg-repro fabric run --resume [KEY]              # resume on a fleet
    awg-repro fabric status         # live sweeps, leases, fleet state
    awg-repro fabric drill --workers 4 --seed 0      # chaos drill
    awg-repro fabric worker DIR     # join a sweep as one worker
    awg-repro durability --smoke    # crash-state enumeration, golden-gated
    awg-repro durability --enumerate cache liar-fsync
    awg-repro durability --campaign io-chaos --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro.core.policies import named_policy
from repro.experiments import (
    QUICK_SCALE, PAPER_SCALE, OVERSUBSCRIBED, run_benchmark,
)
from repro.experiments import (
    fig5, fig7, fig8, fig9, fig11, fig13, fig14, fig15, table1, table2,
)
from repro.experiments.cache import ResultCache, default_cache_dir
from repro.workloads.registry import benchmark_names

EXPERIMENTS: Dict[str, Callable] = {
    "table1": lambda scenario, **kw: table1.run(),
    "table2": lambda scenario, **kw: table2.run(scenario, **kw),
    "fig5": lambda scenario, **kw: fig5.run(scenario),
    "fig7": lambda scenario, **kw: fig7.run(scenario, **kw),
    "fig8": lambda scenario, **kw: fig8.run(scenario, **kw),
    "fig9": lambda scenario, **kw: fig9.run(scenario, **kw),
    "fig11": lambda scenario, **kw: fig11.run(scenario, **kw),
    "fig13": lambda scenario, **kw: fig13.run(
        scenario if scenario.resource_loss_at_us else OVERSUBSCRIBED, **kw
    ),
    "fig14": lambda scenario, **kw: fig14.run(scenario, **kw),
    "fig15": lambda scenario, **kw: fig15.run(
        scenario if scenario.resource_loss_at_us else OVERSUBSCRIBED, **kw
    ),
}

#: every command besides the experiment ids, as dispatched below
COMMANDS = (
    "list", "all", "run", "ablations", "timeline", "faults", "cache",
    "matrix", "replay", "shrink", "lint", "analyze", "sanitize", "trace",
    "fabric", "litmus", "durability",
)


def _run_ablations(quick: bool, **kw) -> None:
    from repro.experiments import ablations

    scenario = QUICK_SCALE if quick else PAPER_SCALE.scaled(
        total_wgs=64, wgs_per_group=8, max_wgs_per_cu=8,
        iterations=2, episodes=4)
    for fn in (ablations.syncmon_capacity, ablations.monitor_log_capacity,
               ablations.resume_prediction):
        print(fn(scenario, **kw).render())
        print()
    print(ablations.stall_prediction(**kw).render())


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


def _run_durability(opts, parser) -> int:
    """Crash-consistency harness: enumerate the legal post-crash disk
    states of the durable-state layer and recover every one of them
    (see README "Durability & crash consistency")."""
    import json
    from pathlib import Path

    from repro.durability.harness import (
        compare_golden, default_repro_dir, run_campaign, run_scenario,
        run_smoke, SCENARIOS, SMOKE_CAMPAIGN_PLAN,
    )
    from repro.durability.vfs import (
        durability_plan_names, named_durability_plan,
    )

    repro_dir = default_repro_dir()

    if opts.enumerate_:
        if not opts.args or opts.args[0] not in SCENARIOS:
            parser.error(f"durability --enumerate needs a scenario: "
                         f"{', '.join(SCENARIOS)}")
        plan = None
        if len(opts.args) > 1:
            plan = named_durability_plan(opts.args[1], opts.seed)
        report = run_scenario(opts.args[0], plan=plan,
                              max_states=opts.max_states,
                              repro_dir=repro_dir, log=print)
        print(f"{report.name}: {report.ops} ops, {report.states} states, "
              f"{len(report.violations)} violations "
              f"(signature {report.op_signature})")
        if not report.ok:
            print(f"failing states under {repro_dir}/")
        return 0 if report.ok else 1

    if opts.campaign:
        plan_name = opts.args[0] if opts.args else SMOKE_CAMPAIGN_PLAN
        if plan_name not in durability_plan_names():
            parser.error(f"unknown durability plan {plan_name!r}; known: "
                         f"{', '.join(durability_plan_names())}")
        campaign = run_campaign(plan_name, opts.seed,
                                max_states=opts.max_states,
                                repro_dir=repro_dir, log=print)
        verdict = ("bit-reproducible" if campaign["reproducible"]
                   else "NOT REPRODUCIBLE")
        print(f"campaign ({plan_name}, seed {opts.seed}): {verdict}, "
              f"digest {campaign['digest']}, "
              f"{campaign['violations']} violations")
        if opts.out:
            Path(opts.out).write_text(
                json.dumps(campaign, indent=2, sort_keys=True) + "\n")
        return 0 if campaign["reproducible"] and not campaign["violations"] \
            else 1

    # default / --smoke: the CI configuration
    report = run_smoke(seed=opts.seed, max_states=opts.max_states,
                       repro_dir=repro_dir, log=print)
    if opts.out:
        Path(opts.out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    if opts.write_golden:
        golden = dict(report)
        golden.pop("ok", None)
        Path(opts.write_golden).parent.mkdir(parents=True, exist_ok=True)
        Path(opts.write_golden).write_text(
            json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"wrote durability golden to {opts.write_golden}")
        return 0
    exit_code = 0 if report["ok"] else 1
    if opts.golden:
        try:
            golden = json.loads(Path(opts.golden).read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read golden {opts.golden}: {exc}")
            return 1
        diffs = compare_golden(report, golden)
        if diffs:
            print(f"DURABILITY GOLDEN DRIFT vs {opts.golden}:")
            for diff in diffs:
                print(f"  {diff}")
            print("re-baseline with: python -m repro durability --smoke "
                  f"--write-golden {opts.golden}")
            exit_code = 1
        else:
            print(f"golden match: {opts.golden}")
    if exit_code:
        print(f"failing crash states (if any) under {repro_dir}/")
    return exit_code


def _run_replay(opts, parser) -> int:
    """Re-run a repro bundle and verify its failure reproduces."""
    import json

    from repro.recovery.bundle import load_bundle, replay_bundle

    if len(opts.args) != 1:
        parser.error("replay needs BUNDLE")
    bundle = load_bundle(opts.args[0])
    report = replay_bundle(bundle, trace=opts.trace)
    request = bundle["request"]
    policy = request["policy"]["name"]
    label = request["scenario"]["label"]
    print(f"replaying {request['benchmark']} / {policy} [{label}] — "
          f"expecting {report['expected']['mode']}")
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
    print(f"NOT reproduced: observed {report['observed']['mode']}, "
          f"expected {report['expected']['mode']} "
          f"(code fingerprint in bundle provenance: "
          f"{bundle['provenance'].get('fingerprint')})", file=sys.stderr)
    return 1


def _run_shrink(opts, parser) -> int:
    """Delta-debug a repro bundle down to a minimal failing scenario."""
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
    from repro.litmus.shrinklink import (
        emit_violation_bundles, load_litmus_bundle, replay_litmus_bundle,
        shrink_litmus_bundle, write_litmus_bundle,
    )
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

    if sub == "replay":
        if len(opts.args) != 2:
            parser.error("litmus replay needs BUNDLE")
        bundle = load_litmus_bundle(opts.args[1])
        report = replay_litmus_bundle(bundle)
        request = bundle["request"]
        label = (request["program"].get("alias")
                 or "generated litmus program")
        print(f"replaying {label} / {request['policy']['name']} — "
              f"expecting {report['expected']['mode']}")
        if opts.json:
            print(json.dumps(report, indent=2, sort_keys=True,
                             default=str))
        if report["reproduced"]:
            print("REPRODUCED: the recorded violation recurs")
            return 0
        print(f"NOT reproduced: observed {report['observed']} "
              f"(code fingerprint in bundle provenance: "
              f"{bundle['provenance'].get('fingerprint')})",
              file=sys.stderr)
        return 1

    if sub == "shrink":
        if len(opts.args) != 2:
            parser.error("litmus shrink needs BUNDLE")
        source = Path(opts.args[1])
        result = shrink_litmus_bundle(load_litmus_bundle(source))
        print(result.render())
        out_dir = Path(opts.out) if opts.out else source.parent
        path = write_litmus_bundle(result.minimal, out_dir)
        print(f"minimal bundle: {path}")
        return 0

    if sub != "run":
        parser.error(f"unknown litmus subcommand {sub!r}; expected "
                     "run, generate, replay, or shrink")

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


def _run_fabric_command(opts, parser) -> int:
    """Distributed sweeps: run/resume on a leased worker fleet, inspect
    live fabric directories, or run the chaos drill."""
    from repro.experiments.matrix import RunRequest
    from repro.fabric.coordinator import run_fabric
    from repro.fabric.lease import default_fabric_root, iter_fabric_dirs
    from repro.recovery.manifest import (
        default_checkpoint_dir, list_manifests, load_manifest,
    )

    sub = opts.args[0] if opts.args else "status"
    workers = opts.workers or 4

    if sub == "status":
        root = default_fabric_root()
        dirs = list(iter_fabric_dirs(root))
        print(f"fabric root: {root}")
        if not dirs:
            print("no fabric sweeps (directories appear while "
                  "`fabric run` is in flight)")
            return 0
        for fabric_dir in dirs:
            sweep = fabric_dir.read_sweep() or {}
            cells = sweep.get("cells", [])
            done = sum(1 for cell in cells
                       if fabric_dir.has_result(cell["key"]))
            held = fabric_dir.live_leases()
            line = (f"  {fabric_dir.root.name}: {done}/{len(cells)} "
                    f"cells committed, {len(held)} lease(s) held")
            stop = fabric_dir.stopped()
            if stop:
                line += f" [stopped: {stop}]"
            print(line)
        return 0

    if sub == "drill":
        from repro.fabric.chaos import run_drill

        report = run_drill(workers=workers, seed=opts.seed, out=print)
        print(report.render())
        return 0 if report.ok else 1

    if sub == "worker":
        from repro.fabric import worker as fabric_worker

        if len(opts.args) != 2:
            parser.error("fabric worker needs DIR")
        return fabric_worker.main(["--dir", opts.args[1]])

    if sub == "run":
        if opts.resume:
            root = default_checkpoint_dir()
            manifests = list_manifests(root)
            if len(opts.args) > 1:
                document = load_manifest(opts.args[1], root)
            elif manifests:
                document = load_manifest(manifests[0]["sweep_key"], root)
            else:
                print(f"nothing to resume under {root}", file=sys.stderr)
                return 1
            requests = [RunRequest.from_spec(cell["spec"])
                        for cell in document["cells"]]
            print(f"resuming sweep {document['sweep_key']} on "
                  f"{workers} workers: "
                  f"{len(document.get('completed', {}))}/{len(requests)} "
                  f"cells already done")
        else:
            tokens = opts.args[1:]
            if not tokens:
                parser.error(
                    "fabric run needs BENCH[:POLICY] arguments or "
                    "--resume [KEY]")
            scenario = QUICK_SCALE if opts.quick else PAPER_SCALE
            requests = []
            for token in tokens:
                bench, _, policy = token.partition(":")
                requests.append(RunRequest(
                    bench, named_policy(policy or "awg"), scenario,
                    validate=False))
        result = run_fabric(
            requests, workers=workers, ttl=opts.ttl,
            cache=None if opts.no_cache else "default",
        )
        print(result.summary())
        for error in result.errors:
            print(f"  FAILED {error.request.benchmark}/"
                  f"{error.request.policy.name}: "
                  f"{error.failure['type']}: {error.failure['message']}",
                  file=sys.stderr)
        return 0 if result.ok else 1

    parser.error(f"unknown fabric subcommand {sub!r}; expected "
                 "run, status, drill, or worker")
    return 2  # pragma: no cover


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
                    **kw) -> None:
    scenario = QUICK_SCALE if quick else PAPER_SCALE
    if quick and name in ("fig13", "fig15"):
        scenario = OVERSUBSCRIBED.scaled(
            total_wgs=32, wgs_per_group=4, max_wgs_per_cu=4,
            iterations=3, episodes=6, resource_loss_at_us=10.0,
            label="quick-oversubscribed",
        )
    started = time.time()
    result = EXPERIMENTS[name](scenario, **kw)
    if chart:
        from repro.experiments.charts import LOG_SCALE_EXPERIMENTS, bar_chart
        print(bar_chart(result, log=name in LOG_SCALE_EXPERIMENTS))
    else:
        print(result.render())
    print(f"[{name}: {time.time() - started:.1f}s]\n")


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
                        help="for 'replay': re-run with structured "
                             "tracing on (write with --out)")
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
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="for 'trace': output path for the Chrome "
                             "trace_event JSON (default: trace.json)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="for 'fabric': worker fleet size "
                             "(default: 4)")
    parser.add_argument("--programs", type=int, default=None, metavar="N",
                        help="for 'litmus': generated programs per run "
                             "(default: 4 with --smoke, else 8)")
    parser.add_argument("--ttl", type=float, default=5.0, metavar="SEC",
                        help="for 'fabric': lease heartbeat budget; a "
                             "worker silent this long loses its cell")
    parser.add_argument("--enumerate", action="store_true",
                        dest="enumerate_",
                        help="for 'durability': enumerate + recover the "
                             "crash states of one scenario (args: "
                             "SCENARIO [PLAN])")
    parser.add_argument("--campaign", action="store_true",
                        help="for 'durability': seeded fault campaign, "
                             "run twice and compared bit-for-bit "
                             "(args: [PLAN])")
    parser.add_argument("--max-states", type=int, default=400, metavar="N",
                        help="for 'durability': crash-state cap per "
                             "enumeration (default: 400)")
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

    if opts.command == "fabric":
        return _run_fabric_command(opts, parser)

    if opts.command == "litmus":
        return _run_litmus_command(opts, parser)

    if opts.command == "durability":
        return _run_durability(opts, parser)

    if opts.command == "replay":
        return _run_replay(opts, parser)

    if opts.command == "shrink":
        return _run_shrink(opts, parser)

    if opts.command == "all":
        for name in EXPERIMENTS:
            _run_experiment(name, opts.quick, opts.chart, **matrix_kw)
        return 0

    if opts.command == "ablations":
        _run_ablations(opts.quick, **matrix_kw)
        return 0

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
        _run_experiment(opts.command, opts.quick, opts.chart, **matrix_kw)
        return 0

    parser.error(f"unknown command {opts.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
