"""Flow-sensitive dataflow passes over kernel CFGs.

Three passes, each consumed both by the CFG-hosted lint rules
(:mod:`.rules`) and by the progress-dependency pass (:mod:`.progress`):

* **Reaching RMW definitions** — which atomic read-modify-writes on
  which address families reach each program point (gen-only, no kill:
  an atomic whose effect raced once is vulnerable forever, matching the
  window-of-vulnerability reasoning of §IV.C).
* **Lockset tracking** — a *must* analysis of critical-section depth:
  meet over predecessors is ``min``, acquires increment, releases
  decrement clamped at zero (an early return after a conditional
  release must not go negative). A load/store pair is only "protected"
  if *every* path to it holds the lock.
* **Wait classification** — every loop and every blessed wait entry
  point classified as ``busy-spin`` (polls memory with no blessed
  wait: holds its CU slot forever), ``blocking-wait`` (a blessed wait
  with an exact-equality recheck: correct only if wakeups are never
  lost) or ``interval-wait`` (monotonic / fused recheck: re-armable,
  immune to lost wakeups).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.cfg import CFG, DeviceOp, Loop
from repro.analysis.dsl import (
    LOCK_ACQUIRE_METHODS,
    LOCK_RELEASE_METHODS,
    POLL_OPS,
    PRIVATE_NAMES,
    RMW_OPS,
    SYNC_ENTRY_METHODS,
    WAIT_OPS,
    addr_arg,
    addr_base,
    addr_is_private,
    dump,
    keyword,
)

#: lockset lattice top (= "unreached"); depths are clamped below this.
_TOP = 1 << 30
#: widening cap so acquire-in-a-loop converges.
_MAX_DEPTH = 64


def private_index_names(cfg: CFG) -> Set[str]:
    """Names assigned from WG-identity expressions — per-WG indices."""
    names: Set[str] = set()
    for node in cfg.kfn.nodes:
        if isinstance(node, ast.Assign) and addr_is_private(node.value, names):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    names.add(tgt.id)
    return names


# -- reaching RMW definitions -------------------------------------------------

@dataclass
class ReachingRMW:
    """Per-block entry sets of reaching atomic-RMW definitions.

    Keys are canonical address dumps (the exact operand expression);
    values map to the earliest such RMW's line, preserving the original
    linter's "first update wins" reporting.
    """

    entry: Dict[int, Dict[str, int]]

    def at_op(self, cfg: CFG, op: DeviceOp) -> Dict[str, int]:
        """Defs reaching ``op``: block entry plus earlier ops in-block."""
        reach = dict(self.entry.get(op.block, {}))
        for prev in cfg.blocks[op.block].ops:
            if prev is op:
                break
            _rmw_gen(prev, reach)
        return reach


def _rmw_gen(op: DeviceOp, into: Dict[str, int]) -> None:
    if op.group != "ctx" or op.name not in (RMW_OPS | {"atomic"}):
        return
    key = dump(op.addr)
    if key not in into or op.line < into[key]:
        into.setdefault(key, op.line)


def reaching_rmw(cfg: CFG) -> ReachingRMW:
    entry: Dict[int, Dict[str, int]] = {bid: {} for bid in cfg.blocks}
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for bid in order:
            block = cfg.blocks[bid]
            out = dict(entry[bid])
            for op in block.ops:
                _rmw_gen(op, out)
            for edge in block.succs:
                dst = entry[edge.dst]
                for key, line in out.items():
                    if key not in dst or line < dst[key]:
                        dst[key] = min(line, dst.get(key, line))
                        changed = True
    return ReachingRMW(entry=entry)


# -- lockset (critical-section depth) must-analysis ---------------------------

@dataclass
class Lockset:
    """Per-block critical-section depth on entry (must-analysis)."""

    entry: Dict[int, int]

    def at_op(self, cfg: CFG, op: DeviceOp) -> int:
        depth = self.entry.get(op.block, 0)
        if depth >= _TOP:
            return 0  # unreachable block: treat as unprotected
        for prev in cfg.blocks[op.block].ops:
            if prev is op:
                break
            depth = _lock_transfer(prev, depth)
        return depth


def _lock_transfer(op: DeviceOp, depth: int) -> int:
    if (op.group == "sync" and op.name in LOCK_ACQUIRE_METHODS) or \
            (op.group == "ctx" and op.name == "acquire_test_and_set"):
        return min(depth + 1, _MAX_DEPTH)
    if op.group == "sync" and op.name in LOCK_RELEASE_METHODS:
        return max(0, depth - 1)
    return depth


def lockset(cfg: CFG) -> Lockset:
    entry: Dict[int, int] = {bid: _TOP for bid in cfg.blocks}
    entry[cfg.entry] = 0
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for bid in order:
            depth = entry[bid]
            if depth >= _TOP:
                continue
            for op in cfg.blocks[bid].ops:
                depth = _lock_transfer(op, depth)
            for edge in cfg.blocks[bid].succs:
                if depth < entry[edge.dst]:
                    entry[edge.dst] = depth
                    changed = True
    return Lockset(entry=entry)


# -- wait classification ------------------------------------------------------

#: wait kinds, from worst to best for forward progress.
BUSY_SPIN = "busy-spin"
BLOCKING_WAIT = "blocking-wait"
INTERVAL_WAIT = "interval-wait"


@dataclass
class WaitSite:
    """One point where a wavefront can stop making forward progress."""

    kind: str  # BUSY_SPIN | BLOCKING_WAIT | INTERVAL_WAIT
    line: int
    col: int
    #: the blessed wait op (None for a raw poll loop)
    op: Optional[DeviceOp] = None
    #: the enclosing loop when the wait sits in one
    loop: Optional[Loop] = None
    #: storage family being waited on ("" when unknown)
    base: str = ""
    #: exact-equality recheck has a `satisfied=` monotonic predicate
    monotonic: bool = False
    #: update fused into the wait via `op=` (waiting-atomic, §IV.D)
    fused: bool = False
    #: wait declared single-waiter (`exclusive=True`)
    exclusive: bool = False
    #: address indexes WG identity — at most one WG waits per word
    private_indexed: bool = False
    #: tests guarding the wait (role-divergent branches)
    guards: Tuple[Tuple[ast.AST, bool], ...] = ()
    #: names of ctx polls when kind == BUSY_SPIN
    polls: List[str] = field(default_factory=list)


def _loop_of(cfg: CFG, op: DeviceOp) -> Optional[Loop]:
    best: Optional[Loop] = None
    for loop in cfg.loops:
        if op.block in loop.blocks:
            if best is None or len(loop.blocks) < len(best.blocks):
                best = loop  # innermost
    return best


def _wait_site_for_op(cfg: CFG, op: DeviceOp,
                      private_names: Set[str]) -> WaitSite:
    call = op.call
    monotonic = keyword(call, "satisfied") is not None
    op_kw = keyword(call, "op")
    # acquire_test_and_set *is* a fused RMW wait; sync_wait becomes one
    # when armed with a non-LOAD `op=` (the §IV.D waiting atomic).
    fused = op.name == "acquire_test_and_set" or (
        op_kw is not None and "LOAD" not in dump(op_kw))
    excl = False
    excl_kw = keyword(call, "exclusive")
    if isinstance(excl_kw, ast.Constant):
        excl = bool(excl_kw.value)
    addr = op.addr if op.addr is not None else (
        call.args[0] if call.args else keyword(call, "addr"))
    kind = INTERVAL_WAIT if (monotonic or fused) else BLOCKING_WAIT
    return WaitSite(
        kind=kind, line=op.line, col=op.col, op=op, loop=_loop_of(cfg, op),
        base=addr_base(addr), monotonic=monotonic, fused=fused,
        exclusive=excl,
        private_indexed=addr_is_private(addr, private_names),
        guards=cfg.blocks[op.block].guards,
    )


def classify_waits(cfg: CFG) -> List[WaitSite]:
    """Every wait site in the kernel, flow-classified.

    A loop is a ``busy-spin`` only if *no* path through it reaches a
    blessed wait (sync_wait / wait_for_value / acquire_test_and_set or a
    sync-primitive entry method) — the flow-sensitive refinement of the
    old "any blessed call textually inside" heuristic.
    """
    private_names = private_index_names(cfg)
    sites: List[WaitSite] = []
    seen_calls: Set[int] = set()
    for op in cfg.ops(unique=True):
        if op.group == "ctx" and op.name in WAIT_OPS:
            if id(op.call) in seen_calls:
                continue
            seen_calls.add(id(op.call))
            sites.append(_wait_site_for_op(cfg, op, private_names))
    for loop in cfg.loops:
        polls: List[str] = []
        blessed = False
        for bid in sorted(loop.blocks):
            for op in cfg.blocks[bid].ops:
                if op.group == "ctx" and op.name in WAIT_OPS:
                    blessed = True
                elif op.group == "sync" and op.name in SYNC_ENTRY_METHODS:
                    blessed = True
                elif op.group == "ctx" and op.name in POLL_OPS:
                    polls.append(op.name)
        if polls and not blessed and not loop.bounded:
            node = loop.node
            sites.append(WaitSite(
                kind=BUSY_SPIN, line=node.lineno, col=node.col_offset,
                loop=loop, polls=polls,
                guards=cfg.blocks[loop.header].guards,
            ))
    sites.sort(key=lambda s: (s.line, s.col))
    return sites


# -- shared-address writes (the update side of wait-for edges) ----------------

@dataclass
class WriteSite:
    """One ctx write that can satisfy someone's wait."""

    op: DeviceOp
    base: str
    private_indexed: bool
    guards: Tuple[Tuple[ast.AST, bool], ...]


def collect_writes(cfg: CFG) -> List[WriteSite]:
    from repro.analysis.dsl import WRITE_OPS

    private_names = private_index_names(cfg)
    out: List[WriteSite] = []
    for op in cfg.ops(unique=True):
        if op.group != "ctx" or op.name not in WRITE_OPS:
            continue
        addr = op.addr
        out.append(WriteSite(
            op=op, base=addr_base(addr),
            private_indexed=addr_is_private(addr, private_names),
            guards=cfg.blocks[op.block].guards,
        ))
    return out
