"""Control-flow graphs over kernel-generator ASTs.

:func:`build_cfg` lowers one :class:`~repro.analysis.dsl.KernelFunction`
into basic blocks connected by typed edges. Synchronization points —
yields into ctx device ops, mutex acquire/release, SyncMon waits —
terminate their block and continue over an explicit ``"sync"`` edge,
so every dataflow pass observes exactly the program points where the
scheduler can intervene.

Lowering is total: ``break``/``continue``/``return``/``raise`` route
through any enclosing ``finally`` bodies (duplicated per exit path, the
classical lowering, so a release in a ``finally`` is visible on *every*
path out of the ``try``), exception edges approximate "the try body may
fault" with an edge from the try entry to each handler, and statement
kinds the builder does not model (e.g. ``match``) degrade to a linear
block plus a structured ``analysis-error`` finding — never a crash.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.dsl import (
    KernelFunction,
    SYNC_ENTRY_METHODS,
    WAIT_OPS,
    addr_arg,
    classify_call,
    dump,
    classify_call as _classify,  # noqa: F401  (re-export convenience)
)
from repro.analysis.findings import Finding

#: sync-primitive methods that end a basic block with an explicit sync
#: edge (the ctx ops that do are WAIT_OPS)
SYNC_POINT_METHODS = frozenset(SYNC_ENTRY_METHODS | {"release"})

#: statement types lowered as straight-line code
_LINEAR_STMTS = (
    ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Pass,
    ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Assert,
    ast.Delete,
)


@dataclass
class DeviceOp:
    """One classified device-DSL call inside a basic block."""

    call: ast.Call
    group: str  # "ctx" | "sync"
    name: str
    delegated: bool  # driven by yield from / await / return
    addr: Optional[ast.AST]
    sym: str  # canonical dump of the address operand
    block: int = -1

    @property
    def line(self) -> int:
        return self.call.lineno

    @property
    def col(self) -> int:
        return self.call.col_offset

    @property
    def is_sync_point(self) -> bool:
        if self.group == "ctx" and self.name in WAIT_OPS:
            return True
        return self.group == "sync" and self.name in SYNC_POINT_METHODS


@dataclass
class Edge:
    src: int
    dst: int
    kind: str  # fall|true|false|loop|break|continue|return|raise|except|sync


@dataclass
class BasicBlock:
    bid: int
    label: str = ""
    stmts: List[ast.stmt] = field(default_factory=list)
    ops: List[DeviceOp] = field(default_factory=list)
    succs: List[Edge] = field(default_factory=list)
    preds: List[Edge] = field(default_factory=list)
    #: (test expr, polarity) pairs controlling entry to this block
    guards: Tuple[Tuple[ast.AST, bool], ...] = ()
    #: True for finally bodies re-lowered along an abrupt exit path
    dup: bool = False


@dataclass
class Loop:
    """One natural loop (single ``while``/``for`` statement)."""

    node: ast.stmt
    header: int
    blocks: Set[int]
    bounded: bool


@dataclass
class CFG:
    kfn: KernelFunction
    blocks: Dict[int, BasicBlock]
    entry: int
    exit: int
    loops: List[Loop]
    errors: List[Finding] = field(default_factory=list)

    def ops(self, unique: bool = True) -> List[DeviceOp]:
        """Every device op, source order; duplicated ``finally``
        lowerings collapsed to one occurrence when ``unique``."""
        seen: Set[int] = set()
        out: List[DeviceOp] = []
        for bid in sorted(self.blocks):
            for op in self.blocks[bid].ops:
                if unique:
                    if id(op.call) in seen:
                        continue
                    seen.add(id(op.call))
                out.append(op)
        out.sort(key=lambda o: (o.line, o.col))
        return out

    def rpo(self) -> List[int]:
        """Reverse postorder over forward edges from the entry."""
        seen: Set[int] = set()
        order: List[int] = []

        def visit(bid: int) -> None:
            seen.add(bid)
            for edge in self.blocks[bid].succs:
                if edge.dst not in seen:
                    visit(edge.dst)
            order.append(bid)

        visit(self.entry)
        return list(reversed(order))

    def reachable(self, start: int) -> Set[int]:
        seen = {start}
        work = [start]
        while work:
            for edge in self.blocks[work.pop()].succs:
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    work.append(edge.dst)
        return seen

    def check_well_formed(self) -> List[str]:
        """Structural invariants; an empty list means well-formed."""
        problems: List[str] = []
        for bid, block in self.blocks.items():
            for edge in block.succs:
                if edge.src != bid:
                    problems.append(f"edge {edge} listed under block {bid}")
                if edge.dst not in self.blocks:
                    problems.append(f"edge {edge} targets unknown block")
                if edge not in self.blocks[edge.dst].preds:
                    problems.append(f"edge {edge} missing from dst preds")
            if bid != self.exit and not block.succs:
                problems.append(f"block {bid} is a dead end (no successors)")
        if self.exit not in self.reachable(self.entry):
            problems.append("exit unreachable from entry")
        return problems


def _is_bounded_iter(node: ast.For) -> bool:
    """``for`` over range(...) or a literal sequence terminates."""
    it = node.iter
    if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and \
            it.func.id in ("range", "enumerate", "zip", "reversed", "sorted"):
        return True
    return isinstance(it, (ast.List, ast.Tuple, ast.Constant))


def _const_true(test: ast.AST) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value) is True


class _Builder:
    def __init__(self, kfn: KernelFunction) -> None:
        self.kfn = kfn
        self.blocks: Dict[int, BasicBlock] = {}
        self.loops: List[Loop] = []
        self.errors: List[Finding] = []
        self.own_nodes: Set[int] = {id(n) for n in kfn.nodes}
        #: (continue target, break join, finally depth at loop entry)
        self.loop_stack: List[Tuple[int, int, int]] = []
        #: pending finally bodies, innermost last
        self.finally_stack: List[List[ast.stmt]] = []
        self.guard_stack: List[Tuple[ast.AST, bool]] = []
        self._dup_depth = 0
        self.exit = self.new_block("exit")

    # -- plumbing ----------------------------------------------------

    def new_block(self, label: str = "") -> int:
        bid = len(self.blocks)
        self.blocks[bid] = BasicBlock(
            bid=bid, label=label, guards=tuple(self.guard_stack),
            dup=self._dup_depth > 0)
        return bid

    def edge(self, src: int, dst: int, kind: str = "fall") -> None:
        e = Edge(src, dst, kind)
        self.blocks[src].succs.append(e)
        self.blocks[dst].preds.append(e)

    def _error(self, node: ast.AST, message: str) -> None:
        self.errors.append(Finding(
            rule_id="analysis-error", severity="warning",
            path=self.kfn.path, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1, message=message,
            hint="the CFG treats this statement as straight-line code; "
                 "rewrite it with if/while/for/try so the analyzer can "
                 "model its control flow",
            function=self.kfn.name,
            def_line=self.kfn.node.lineno,
        ))

    # -- op extraction -----------------------------------------------

    def _collect_ops(self, stmt: ast.stmt, shallow: bool = False) -> List[DeviceOp]:
        """Device ops inside ``stmt``'s own expressions.

        ``shallow`` restricts to the statement's immediate expressions
        (used for compound statements whose bodies are lowered
        separately — only the test/iter expressions belong here).
        """
        if shallow:
            roots: List[ast.AST] = []
            if isinstance(stmt, (ast.If, ast.While)):
                roots = [stmt.test]
            elif isinstance(stmt, ast.For):
                roots = [stmt.iter]
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                roots = [stmt.value]
        else:
            roots = [stmt]
        ops: List[DeviceOp] = []
        for root in roots:
            for node in ast.walk(root):
                if not isinstance(node, ast.Call) or id(node) not in self.own_nodes:
                    continue
                kind = classify_call(node, self.kfn.ctx_names)
                if kind is None:
                    continue
                group, name = kind
                addr = addr_arg(node, name) if group == "ctx" else None
                ops.append(DeviceOp(
                    call=node, group=group, name=name,
                    delegated=self._is_delegated(node),
                    addr=addr, sym=dump(addr),
                ))
        ops.sort(key=lambda o: (o.line, o.col))
        return ops

    def _is_delegated(self, call: ast.Call) -> bool:
        for anc in self.kfn.parent_chain(call):
            if isinstance(anc, (ast.YieldFrom, ast.Await)):
                return True
            if isinstance(anc, ast.Return):
                return True  # `return ctx.op(...)` delegates to the caller
            if isinstance(anc, ast.stmt):
                break
        return False

    def _append_stmt(self, cur: int, stmt: ast.stmt,
                     shallow: bool = False) -> int:
        """Add one statement's ops to ``cur``; split after sync points."""
        block = self.blocks[cur]
        block.stmts.append(stmt)
        ops = self._collect_ops(stmt, shallow=shallow)
        has_sync = False
        for op in ops:
            op.block = cur
            block.ops.append(op)
            if op.is_sync_point:
                has_sync = True
        if has_sync:
            nxt = self.new_block()
            self.edge(cur, nxt, "sync")
            return nxt
        return cur

    # -- statement lowering ------------------------------------------

    def lower_body(self, stmts: Sequence[ast.stmt],
                   cur: Optional[int]) -> Optional[int]:
        for stmt in stmts:
            if cur is None:
                # Unreachable code after a jump still gets a block so
                # its findings (dropped ops etc.) are not lost.
                cur = self.new_block("unreachable")
            cur = self.lower_stmt(stmt, cur)
        return cur

    def lower_stmt(self, stmt: ast.stmt, cur: int) -> Optional[int]:
        if isinstance(stmt, _LINEAR_STMTS):
            return self._append_stmt(cur, stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return cur  # nested defs are their own KernelFunctions
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, cur)
        if isinstance(stmt, ast.While):
            return self._lower_while(stmt, cur)
        if isinstance(stmt, ast.For):
            return self._lower_for(stmt, cur)
        if isinstance(stmt, ast.Try):
            return self._lower_try(stmt, cur)
        if isinstance(stmt, ast.With):
            cur = self._append_stmt(cur, stmt, shallow=True)
            return self.lower_body(stmt.body, cur)
        if isinstance(stmt, ast.Return):
            cur = self._append_stmt(cur, stmt)
            cur = self._run_finallies(cur, 0)
            self.edge(cur, self.exit, "return")
            return None
        if isinstance(stmt, ast.Raise):
            cur = self._append_stmt(cur, stmt)
            cur = self._run_finallies(cur, 0)
            self.edge(cur, self.exit, "raise")
            return None
        if isinstance(stmt, ast.Break):
            if not self.loop_stack:
                self._error(stmt, "break outside any loop")
                return cur
            _, join, depth = self.loop_stack[-1]
            cur = self._run_finallies(cur, depth)
            self.edge(cur, join, "break")
            return None
        if isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                self._error(stmt, "continue outside any loop")
                return cur
            header, _, depth = self.loop_stack[-1]
            cur = self._run_finallies(cur, depth)
            self.edge(cur, header, "continue")
            return None
        # Anything else (match, async constructs, ...): straight-line
        # approximation + structured finding, never a crash.
        self._error(stmt, f"unmodeled control flow: "
                          f"{type(stmt).__name__} lowered as a "
                          f"straight-line statement")
        return self._append_stmt(cur, stmt)

    def _lower_if(self, stmt: ast.If, cur: int) -> Optional[int]:
        cur = self._append_stmt(cur, stmt, shallow=True)
        join = self.new_block("if-join")
        self.guard_stack.append((stmt.test, True))
        then_entry = self.new_block("then")
        self.edge(cur, then_entry, "true")
        then_exit = self.lower_body(stmt.body, then_entry)
        self.guard_stack.pop()
        if then_exit is not None:
            self.edge(then_exit, join, "fall")
        if stmt.orelse:
            self.guard_stack.append((stmt.test, False))
            else_entry = self.new_block("else")
            self.edge(cur, else_entry, "false")
            else_exit = self.lower_body(stmt.orelse, else_entry)
            self.guard_stack.pop()
            if else_exit is not None:
                self.edge(else_exit, join, "fall")
        else:
            self.edge(cur, join, "false")
        if not self.blocks[join].preds:
            return None  # both arms jumped away
        return join

    def _lower_loop(self, stmt, cur: int, header: int,
                    bounded: bool) -> Optional[int]:
        join = self.new_block("loop-join")
        before = set(self.blocks)
        self.loop_stack.append((header, join, len(self.finally_stack)))
        guard_expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        self.guard_stack.append((guard_expr, True))
        body_entry = self.new_block("loop-body")
        self.edge(header, body_entry, "true")
        body_exit = self.lower_body(stmt.body, body_entry)
        self.guard_stack.pop()
        self.loop_stack.pop()
        if body_exit is not None:
            self.edge(body_exit, header, "loop")
        loop_blocks = (set(self.blocks) - before) | {header}
        loop_blocks.discard(join)
        if stmt.orelse:
            else_exit = self.lower_body(stmt.orelse, self.new_block("loop-else"))
            else_entry = min((set(self.blocks) - before) - loop_blocks - {join})
            self.edge(header, else_entry, "false")
            if else_exit is not None:
                self.edge(else_exit, join, "fall")
        elif not (isinstance(stmt, ast.While) and _const_true(stmt.test)):
            self.edge(header, join, "false")
        self.loops.append(Loop(node=stmt, header=header,
                               blocks=loop_blocks, bounded=bounded))
        if not self.blocks[join].preds:
            return None  # `while True` with no break
        return join

    def _lower_while(self, stmt: ast.While, cur: int) -> Optional[int]:
        header = self.new_block("while")
        self.edge(cur, header, "fall")
        header = self._append_stmt(header, stmt, shallow=True)
        return self._lower_loop(stmt, cur, header, bounded=False)

    def _lower_for(self, stmt: ast.For, cur: int) -> Optional[int]:
        header = self.new_block("for")
        self.edge(cur, header, "fall")
        header = self._append_stmt(header, stmt, shallow=True)
        return self._lower_loop(stmt, cur, header,
                                bounded=_is_bounded_iter(stmt))

    def _lower_try(self, stmt: ast.Try, cur: int) -> Optional[int]:
        try_entry = self.new_block("try")
        self.edge(cur, try_entry, "fall")
        if stmt.finalbody:
            self.finally_stack.append(stmt.finalbody)
        body_exit = self.lower_body(stmt.body, try_entry)
        if body_exit is not None and stmt.orelse:
            body_exit = self.lower_body(stmt.orelse, body_exit)
        handler_exits: List[int] = []
        for handler in stmt.handlers:
            h_entry = self.new_block("except")
            # Approximation: the try body may fault at its entry point.
            self.edge(try_entry, h_entry, "except")
            h_exit = self.lower_body(handler.body, h_entry)
            if h_exit is not None:
                handler_exits.append(h_exit)
        if stmt.finalbody:
            self.finally_stack.pop()
            fin_entry = self.new_block("finally")
            fin_exit = self.lower_body(stmt.finalbody, fin_entry)
            if body_exit is not None:
                self.edge(body_exit, fin_entry, "fall")
            for h_exit in handler_exits:
                self.edge(h_exit, fin_entry, "fall")
            if not stmt.handlers:
                # An unhandled exception still runs the finally.
                self.edge(try_entry, fin_entry, "except")
            if fin_exit is None:
                return None
            if not self.blocks[fin_entry].preds:
                return None
            return fin_exit
        join = self.new_block("try-join")
        joined = False
        if body_exit is not None:
            self.edge(body_exit, join, "fall")
            joined = True
        for h_exit in handler_exits:
            self.edge(h_exit, join, "fall")
            joined = True
        return join if joined else None

    def _run_finallies(self, cur: int, upto: int) -> int:
        """Route an abrupt exit through pending finally bodies
        (innermost first), duplicating their lowering on this path."""
        self._dup_depth += 1
        for finalbody in reversed(self.finally_stack[upto:]):
            entry = self.new_block("finally-dup")
            self.edge(cur, entry, "fall")
            out = self.lower_body(finalbody, entry)
            if out is None:  # the finally itself jumped away
                self._dup_depth -= 1
                return self.new_block("finally-noreturn")
            cur = out
        self._dup_depth -= 1
        return cur


def build_cfg(kfn: KernelFunction) -> CFG:
    """Lower one kernel function into a CFG. Never raises on weird
    input: unmodeled statements degrade to straight-line blocks plus an
    ``analysis-error`` finding."""
    builder = _Builder(kfn)
    entry = builder.new_block("entry")
    try:
        last = builder.lower_body(kfn.node.body, entry)
        if last is not None:
            builder.edge(last, builder.exit, "fall")
    except RecursionError:  # pragma: no cover - pathological nesting
        builder._error(kfn.node, "function too deeply nested to lower")
        builder.edge(entry, builder.exit, "fall")
    cfg = CFG(kfn=kfn, blocks=builder.blocks, entry=entry,
              exit=builder.exit, loops=builder.loops,
              errors=builder.errors)
    # Prune truly disconnected empty helper blocks (e.g. an if-join both
    # of whose arms returned) so well-formedness checks stay meaningful.
    reachable = cfg.reachable(cfg.entry)
    for bid in list(cfg.blocks):
        if bid in reachable or bid == cfg.exit:
            continue
        block = cfg.blocks[bid]
        if not block.stmts and not block.preds and not block.succs:
            del cfg.blocks[bid]
    return cfg


def cfgs_for_source(source: str, path: str) -> Iterator[CFG]:
    """Parse ``source`` and build one CFG per kernel function."""
    from repro.analysis.dsl import iter_kernel_functions

    tree = ast.parse(source, filename=path)
    for kfn in iter_kernel_functions(tree, path):
        yield build_cfg(kfn)
