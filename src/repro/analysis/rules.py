"""The lint rule registry and the four kernel rules, hosted on the CFG.

Kernels in this repository are Python generators programmed against
:class:`~repro.gpu.device_api.WavefrontCtx`; every device operation and
every sync-primitive method (``mutex.acquire(ctx)``, ``barrier.arrive(
ctx, ...)``) is itself a generator that must be driven with ``yield
from``. The rules below analyze exactly that DSL: they only fire inside
*kernel functions* — functions that take a ``ctx`` parameter (or one
annotated ``WavefrontCtx``) or that call ``ctx`` device ops.

Since PR 8 each rule runs over the kernel's control-flow graph
(:mod:`.cfg`) and the dataflow passes (:mod:`.dataflow`) instead of
per-statement AST scans: busy-wait detection asks "does any path
through this loop reach a blessed wait", the vulnerable-wait window is
a reaching-definitions question, and critical sections come from a
must-lockset — same rule ids, severities and messages, flow-sensitive
answers.

Each rule is registered with an id, a severity, a fix hint and the paper
section that motivates it; ``# repro: noqa[rule-id]`` on the offending
line (or on the enclosing ``def`` line) suppresses a finding (see
:mod:`repro.analysis.linter`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import (
    BUSY_SPIN,
    classify_waits,
    lockset,
    reaching_rmw,
)

from repro.analysis.dsl import (
    KernelFunction,
    dump as _dump,
    keyword as _keyword,
)
from repro.analysis.findings import SEVERITIES, Finding


# -- rule framework -----------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    rule_id: str
    severity: str
    summary: str
    hint: str
    paper_ref: str
    check: Callable[[CFG], Iterator[Finding]]


RULES: Dict[str, Rule] = {}


def register(rule_id: str, severity: str, summary: str, hint: str,
             paper_ref: str) -> Callable:
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def deco(fn: Callable[[CFG], Iterator[Finding]]) -> Callable:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule {rule_id}")
        RULES[rule_id] = Rule(rule_id=rule_id, severity=severity,
                              summary=summary, hint=hint,
                              paper_ref=paper_ref, check=fn)
        return fn

    return deco


def _finding(rule_id: str, cfg: CFG, node: ast.AST, message: str) -> Finding:
    rule = RULES[rule_id]
    kfn = cfg.kfn
    return Finding(
        rule_id=rule_id,
        severity=rule.severity,
        path=kfn.path,
        line=getattr(node, "lineno", kfn.node.lineno),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
        hint=rule.hint,
        function=kfn.name,
        def_line=kfn.node.lineno,
    )


def check_kernel(kfn: KernelFunction) -> List[Finding]:
    """Build the CFG once and run every registered rule over it.

    The builder's own ``analysis-error`` findings ride along (they are
    not registered rules — the registry stays exactly the four
    documented ids — but they surface through the same reporting path).
    """
    cfg = build_cfg(kfn)
    findings: List[Finding] = list(cfg.errors)
    for rule in RULES.values():
        findings.extend(rule.check(cfg))
    return findings


# -- rule 1: missing-yield-from ----------------------------------------------

@register(
    "missing-yield-from", "error",
    "a device-op generator is called but never driven",
    "drive device ops with `result = yield from ctx.<op>(...)`; a bare "
    "call builds a generator and silently discards the operation",
    "DSL contract",
)
def check_missing_yield_from(cfg: CFG) -> Iterator[Finding]:
    for op in cfg.ops(unique=True):
        if op.delegated:
            continue
        label = f"ctx.{op.name}" if op.group == "ctx" else f"{op.name}(ctx)"
        yield _finding(
            "missing-yield-from", cfg, op.call,
            f"`{label}(...)` builds a device-op generator that is never "
            "started — the operation is silently dropped",
        )


# -- rule 2: busy-wait-loop ---------------------------------------------------

@register(
    "busy-wait-loop", "error",
    "an unbounded loop polls memory instead of using ctx.sync_wait",
    "express the wait through `ctx.sync_wait` / `ctx.wait_for_value` so "
    "the scheduling policy can lower it without busy-waiting",
    "§IV.B-C",
)
def check_busy_wait_loop(cfg: CFG) -> Iterator[Finding]:
    for site in classify_waits(cfg):
        if site.kind != BUSY_SPIN or site.loop is None:
            continue
        if not isinstance(site.loop.node, ast.While):
            continue  # bounded-iteration `for` polls terminate by construction
        yield _finding(
            "busy-wait-loop", cfg, site.loop.node,
            f"while-loop polls ctx.{site.polls[0]} with no sync_wait — a "
            "busy-wait that deadlocks under oversubscription (the "
            "waiting WG never releases its compute-unit slot)",
        )


# -- rule 3: vulnerable-wait --------------------------------------------------

@register(
    "vulnerable-wait", "warning",
    "a failed atomic is followed by a separate exact-equality wait on the "
    "same variable",
    "fuse the update and the wait by passing `op=` to ctx.sync_wait (the "
    "waiting-atomic path), or make the re-check monotonic with "
    "`satisfied=lambda v: v >= target`",
    "§IV.C",
)
def check_vulnerable_wait(cfg: CFG) -> Iterator[Finding]:
    rmw = reaching_rmw(cfg)
    for op in cfg.ops(unique=True):
        if op.group != "ctx" or op.name not in ("wait_for_value", "sync_wait"):
            continue
        call = op.call
        if _keyword(call, "satisfied") is not None:
            continue  # monotonic re-check closes the window (Mesa semantics)
        op_kw = _keyword(call, "op")
        if op_kw is not None and "LOAD" not in _dump(op_kw):
            continue  # fused waiting RMW — the §IV.D race-free path
        addr = op.addr if op.addr is not None else (
            call.args[0] if call.args else _keyword(call, "addr"))
        reaching = rmw.at_op(cfg, op)
        rmw_line = reaching.get(_dump(addr))
        if rmw_line is not None and rmw_line < call.lineno:
            yield _finding(
                "vulnerable-wait", cfg, call,
                f"exact-equality wait on the variable updated by the atomic "
                f"at line {rmw_line}: the releasing update can land between "
                "the check and the wait arming (window of vulnerability)",
            )


# -- rule 4: nonatomic-shared-rmw --------------------------------------------

@register(
    "nonatomic-shared-rmw", "warning",
    "plain load/compute/store on shared memory outside any critical section",
    "guard the read-modify-write with a mutex acquire/release, or use "
    "`ctx.atomic_add` and friends for a single-word update",
    "Table 2 workloads",
)
def check_nonatomic_shared_rmw(cfg: CFG) -> Iterator[Finding]:
    from repro.analysis.dataflow import private_index_names
    from repro.analysis.dsl import addr_is_private

    locks = lockset(cfg)
    private_names = private_index_names(cfg)
    pending_loads: Dict[str, int] = {}  # addr dump -> lock depth at load
    for op in cfg.ops(unique=True):
        if op.group != "ctx" or op.name not in ("load", "store"):
            continue
        depth = locks.at_op(cfg, op)
        if op.name == "load":
            if not addr_is_private(op.addr, private_names):
                pending_loads[_dump(op.addr)] = depth
            continue
        key = _dump(op.addr)
        if key in pending_loads and pending_loads[key] == 0 \
                and depth == 0 \
                and not addr_is_private(op.addr, private_names):
            yield _finding(
                "nonatomic-shared-rmw", cfg, op.call,
                "store completes a plain read-modify-write on a "
                "shared address with no enclosing acquire/"
                "release — concurrent WGs lose updates",
            )
            del pending_loads[key]
