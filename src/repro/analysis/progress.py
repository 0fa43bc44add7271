"""The progress-dependency pass: static wait-for graphs per benchmark.

For every shipped benchmark the pass

1. resolves its :class:`~repro.sync.roles.SyncProtocol` to the
   kernel functions that implement it (the heterosync body plus the
   sync-primitive methods, found by qualified name in the protocol
   source modules),
2. builds their CFGs, runs the dataflow passes, and extracts every
   *wait site* (blessed waits and raw poll loops) and every shared
   *write site*,
3. matches each wait to the writes that can satisfy it by storage
   family (``self.lock_addr`` ↔ ``atomic_exch(self.lock_addr, 0)``),
   consulting :func:`~repro.sync.roles.kernel_roles` hints where
   the address is computed (``self._slot(ticket)``), and
4. assigns work-group *roles* to both ends — from hints, or inferred
   from role-divergent guards (``is_group_leader(...)``, ``group ==
   0``) — yielding a wait-for graph between roles plus one
   :class:`~repro.analysis.specs.WaitProfile` per site for the policy
   specs to judge.

Everything here is pure ``ast``: the protocol sources are parsed, not
introspected, because the heterosync kernels are nested functions that
no import can reach. The ``kernel_roles`` decorators are read from the
same trees.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import (
    BUSY_SPIN,
    WaitSite,
    WriteSite,
    classify_waits,
    collect_writes,
)
from repro.analysis.dsl import iter_kernel_functions
from repro.analysis.findings import Finding
from repro.analysis.specs import WaitProfile
from repro.sync.roles import WaitHint

#: the ``repro`` package directory, under which every protocol source lives
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: modules whose sources carry every shipped protocol
PROTOCOL_MODULES = (
    "repro.workloads.heterosync",
    "repro.sync.mutex",
    "repro.sync.barrier",
)


# -- decorator hints (parsed from the AST, not imported) ----------------------

def _const(node: ast.AST):
    return node.value if isinstance(node, ast.Constant) else None


def _parse_wait_hints(fn: ast.FunctionDef) -> Tuple[WaitHint, ...]:
    """The ``waits=`` hints of the function's ``kernel_roles`` decorator."""
    for dec in fn.decorator_list:
        if not (isinstance(dec, ast.Call) and
                isinstance(dec.func, ast.Name) and
                dec.func.id == "kernel_roles"):
            continue
        hints: List[WaitHint] = []
        for kw in dec.keywords:
            if kw.arg != "waits" or not isinstance(kw.value, ast.Tuple):
                continue
            for elt in kw.value.elts:
                if not (isinstance(elt, ast.Call) and
                        isinstance(elt.func, ast.Name) and
                        elt.func.id == "WaitHint"):
                    continue
                base = _const(elt.args[0]) if elt.args else None
                kv = {k.arg: _const(k.value) for k in elt.keywords}
                if isinstance(base, str):
                    hints.append(WaitHint(
                        base=base,
                        waiter=str(kv.get("waiter", "waiter")),
                        updater=str(kv.get("updater", "updater")),
                        single_waiter=bool(kv.get("single_waiter", False)),
                    ))
        return tuple(hints)
    return ()


# -- protocol source index ----------------------------------------------------

@dataclass
class ProtocolFunction:
    qualname: str
    cfg: CFG
    hints: Tuple[WaitHint, ...]
    waits: List[WaitSite] = field(default_factory=list)
    writes: List[WriteSite] = field(default_factory=list)


def _module_path(module: str) -> str:
    """Source file of ``repro.<parts>``, found without importing it."""
    _package, *parts = module.split(".")
    return os.path.join(_PACKAGE_DIR, *parts) + ".py"


@lru_cache(maxsize=None)
def _index_module(module: str) -> Tuple[ProtocolFunction, ...]:
    path = _module_path(module)
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    out: List[ProtocolFunction] = []
    for kfn in iter_kernel_functions(tree, os.path.relpath(path)):
        cfg = build_cfg(kfn)
        pf = ProtocolFunction(
            qualname=kfn.qualname, cfg=cfg,
            hints=_parse_wait_hints(kfn.node),
            waits=classify_waits(cfg),
            writes=collect_writes(cfg),
        )
        out.append(pf)
    return tuple(out)


def protocol_functions() -> Dict[str, ProtocolFunction]:
    """qualname -> analyzed function, across all protocol modules."""
    index: Dict[str, ProtocolFunction] = {}
    for module in PROTOCOL_MODULES:
        for pf in _index_module(module):
            index[pf.qualname] = pf
    return index


# -- role inference -----------------------------------------------------------

def _guard_role(guards, default: str) -> str:
    """Role implied by role-divergent guards, innermost decision last.

    ``is_group_leader(...)`` splits leader/member; a ``== 0`` group test
    inside the leader branch elects the root.
    """
    role = default
    for test, polarity in guards:
        names = {n.attr for n in ast.walk(test)
                 if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(test) if isinstance(n, ast.Name)}
        if "is_group_leader" in names:
            role = "leader" if polarity else "member"
        elif role == "leader" and isinstance(test, ast.Compare) and \
                any(isinstance(c, ast.Constant) and c.value == 0
                    for c in test.comparators):
            role = "root" if polarity else "leader"
    return role


# -- the wait-for graph -------------------------------------------------------

@dataclass
class WaitForEdge:
    """``waiter`` cannot progress until ``updater`` writes ``base``."""

    waiter: str
    updater: str
    base: str
    function: str  # qualname holding the wait
    line: int
    matched: bool
    hinted: bool
    profile: WaitProfile


@dataclass
class ProtocolAnalysis:
    """Everything the static table needs about one benchmark."""

    bench: str
    kind: str
    primitive: str
    decentralized: bool
    functions: List[str]
    edges: List[WaitForEdge]
    errors: List[str]

    @property
    def profiles(self) -> List[WaitProfile]:
        return [e.profile for e in self.edges]

    def to_dict(self) -> Dict:
        return {
            "bench": self.bench,
            "kind": self.kind,
            "primitive": self.primitive,
            "decentralized": self.decentralized,
            "functions": list(self.functions),
            "edges": [
                {
                    "waiter": e.waiter, "updater": e.updater,
                    "base": e.base, "function": e.function,
                    "line": e.line, "matched": e.matched,
                    "hinted": e.hinted, "kind": e.profile.kind,
                    "single_waiter": e.profile.single_waiter,
                }
                for e in self.edges
            ],
            "errors": list(self.errors),
        }


def _default_roles(kind: str) -> Tuple[str, str]:
    """(waiter default, updater default) for a protocol kind."""
    if kind == "mutex":
        return ("contender", "holder")
    return ("member", "leader")


def _is_indirect(site: WaitSite) -> bool:
    """Computed wait addresses (method calls) defeat base matching
    unless a hint vouches for them."""
    op = site.op
    if op is None or op.addr is None:
        return False
    return isinstance(op.addr, ast.Call)


def analyze_benchmark(bench: str) -> ProtocolAnalysis:
    """Static wait-for analysis of one shipped benchmark."""
    from repro.workloads.registry import get_spec

    spec = get_spec(bench)
    protocol = spec.protocol
    if protocol is None:
        return ProtocolAnalysis(
            bench=bench, kind=spec.category, primitive="",
            decentralized=False, functions=[], edges=[],
            errors=[f"{bench}: no SyncProtocol on the spec "
                    "(stress drill?)"])
    index = protocol_functions()
    wanted: List[ProtocolFunction] = []
    body_qual = f"{protocol.body_builder}.body"
    if body_qual in index:
        wanted.append(index[body_qual])
    for qual, pf in sorted(index.items()):
        if protocol.primitive and qual.startswith(protocol.primitive + "."):
            wanted.append(pf)
    errors: List[str] = []
    if not wanted:
        errors.append(f"{bench}: no protocol functions found for "
                      f"{protocol.primitive!r} / {body_qual!r}")

    # Pool every write and hint across the protocol's functions: the
    # satisfying write usually lives in a *different* method than the
    # wait (release vs acquire).
    writes_by_base: Dict[str, List[Tuple[str, WriteSite]]] = {}
    hints_by_base: Dict[str, WaitHint] = {}
    waiter_default, updater_default = _default_roles(protocol.kind)
    for pf in wanted:
        for w in pf.writes:
            writes_by_base.setdefault(w.base, []).append((pf.qualname, w))
        for h in pf.hints:
            hints_by_base[h.base] = h
        for finding in pf.cfg.errors:
            errors.append(f"{pf.qualname}: {finding.message}")

    edges: List[WaitForEdge] = []
    for pf in wanted:
        for site in pf.waits:
            if site.kind == BUSY_SPIN:
                label = f"{pf.qualname}:spin@L{site.line}"
                edges.append(WaitForEdge(
                    waiter=_guard_role(site.guards, waiter_default),
                    updater="<memory>", base="|".join(site.polls) or "?",
                    function=pf.qualname, line=site.line,
                    matched=False, hinted=False,
                    profile=WaitProfile(label=label, kind=BUSY_SPIN),
                ))
                continue
            hint = hints_by_base.get(site.base)
            indirect = _is_indirect(site)
            writers = writes_by_base.get(site.base, [])
            matched = bool(writers) and (not indirect or hint is not None)
            if hint is not None:
                waiter, updater = hint.waiter, hint.updater
            else:
                waiter = _guard_role(site.guards, waiter_default)
                updater = updater_default
                for wq, w in writers:
                    if wq != pf.qualname or w.guards != site.guards:
                        updater = _guard_role(w.guards, updater_default)
                        break
            single = site.exclusive or site.private_indexed or \
                bool(hint and hint.single_waiter)
            label = f"{pf.qualname}:{site.base}"
            edges.append(WaitForEdge(
                waiter=waiter, updater=updater, base=site.base,
                function=pf.qualname, line=site.line,
                matched=matched, hinted=hint is not None,
                profile=WaitProfile(
                    label=label, kind=site.kind,
                    fused=site.fused, monotonic=site.monotonic,
                    single_waiter=single, matched=matched,
                ),
            ))
    return ProtocolAnalysis(
        bench=bench, kind=protocol.kind, primitive=protocol.primitive,
        decentralized=protocol.decentralized,
        functions=[pf.qualname for pf in wanted],
        edges=edges, errors=errors,
    )


def render_dot(analyses: Sequence[ProtocolAnalysis]) -> str:
    """GraphViz rendering of the role wait-for graphs."""
    lines = ["digraph waitfor {", "  rankdir=LR;",
             "  node [shape=box, fontname=monospace];"]
    for pa in analyses:
        lines.append(f"  subgraph cluster_{pa.bench} {{")
        lines.append(f'    label="{pa.bench} ({pa.primitive or pa.kind})";')
        seen: Set[Tuple[str, str, str]] = set()
        for e in pa.edges:
            key = (e.waiter, e.updater, e.base)
            if key in seen:
                continue
            seen.add(key)
            style = "solid" if e.matched else "dashed"
            lines.append(
                f'    "{pa.bench}.{e.waiter}" -> "{pa.bench}.{e.updater}"'
                f' [label="{e.base}", style={style}];')
        for role in sorted({e.waiter for e in pa.edges}
                           | {e.updater for e in pa.edges}):
            lines.append(
                f'    "{pa.bench}.{role}" [label="{role}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
