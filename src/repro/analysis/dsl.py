"""The kernel-generator DSL surface shared by every static pass.

Kernels in this repository are Python generators programmed against
:class:`~repro.gpu.device_api.WavefrontCtx`; every device operation and
every sync-primitive method (``mutex.acquire(ctx)``, ``barrier.arrive(
ctx, ...)``) is itself a generator that must be driven with ``yield
from``. This module holds the vocabulary of that DSL — which ctx methods
are generators, which are waits, which are polls — plus the
:class:`KernelFunction` model that the CFG builder (:mod:`.cfg`), the
dataflow passes (:mod:`.dataflow`) and the lint rules (:mod:`.rules`)
all analyze.

Nothing here imports the simulator: the whole analysis layer runs on
stdlib ``ast`` alone so it can lint a checkout without executing it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

# -- the device DSL surface ---------------------------------------------------

#: ctx methods that return generators and must be driven with ``yield from``.
DEVICE_GEN_OPS = frozenset({
    "compute", "load", "store", "lds_read", "lds_write", "s_sleep",
    "atomic", "atomic_load", "atomic_add", "atomic_sub", "atomic_exch",
    "atomic_store", "atomic_cas", "sync_wait", "acquire_test_and_set",
    "wait_for_value",
})

#: ctx methods that are plain calls (no generator, no ``yield from``).
CTX_PLAIN_OPS = frozenset({"progress"})

#: the blessed waiting entry points — lowered by the active policy.
WAIT_OPS = frozenset({"sync_wait", "wait_for_value", "acquire_test_and_set"})

#: ctx reads a loop can poll on (the busy-wait ingredients).
POLL_OPS = frozenset({
    "load", "atomic", "atomic_load", "atomic_add", "atomic_sub",
    "atomic_exch", "atomic_cas",
})

#: read-modify-write ops whose failure + separate wait re-opens §IV.C.
RMW_OPS = frozenset({"atomic_add", "atomic_sub", "atomic_exch", "atomic_cas"})

#: ctx ops that write memory (the update side of a wait-for edge).
WRITE_OPS = frozenset({
    "store", "atomic_add", "atomic_sub", "atomic_exch", "atomic_store",
    "atomic_cas", "atomic",
})

#: sync-primitive methods that suspend/advance execution when given a ctx.
SYNC_ENTRY_METHODS = frozenset({"acquire", "arrive", "join", "group_size"})

#: sync-primitive methods that open / close a critical section.
LOCK_ACQUIRE_METHODS = frozenset({"acquire"})
LOCK_RELEASE_METHODS = frozenset({"release"})

#: identifiers that mark an address expression as WG-private.
PRIVATE_NAMES = frozenset({"grid_index", "wg_id"})


# -- kernel-function model ----------------------------------------------------

def _annotation_mentions_ctx(node: ast.arg) -> bool:
    ann = node.annotation
    if ann is None:
        return False
    try:
        text = ast.unparse(ann)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return "WavefrontCtx" in text


def _ctx_param_names(fn: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg == "ctx" or _annotation_mentions_ctx(arg):
            names.add(arg.arg)
    return names


@dataclass
class KernelFunction:
    """One function that executes device code, with its own AST subset.

    ``nodes`` excludes the subtrees of nested function definitions — each
    nested ``def`` is analyzed as its own :class:`KernelFunction`.
    ``qualname`` carries the enclosing class / function names so the
    progress pass can resolve ``SpinMutex.acquire`` or
    ``make_mutex_body.body`` by name.
    """

    node: ast.FunctionDef
    path: str
    ctx_names: Set[str]
    nodes: List[ast.AST] = field(default_factory=list)
    parents: Dict[int, ast.AST] = field(default_factory=dict)
    qualname: str = ""

    @property
    def name(self) -> str:
        return self.node.name

    def parent_chain(self, node: ast.AST) -> Iterator[ast.AST]:
        """Ancestors of ``node`` up to (and excluding) the function def."""
        cur = self.parents.get(id(node))
        while cur is not None and cur is not self.node:
            yield cur
            cur = self.parents.get(id(cur))


def _collect_own(fn: ast.FunctionDef) -> Tuple[List[ast.AST], Dict[int, ast.AST]]:
    """Walk ``fn`` without descending into nested function definitions."""
    nodes: List[ast.AST] = []
    parents: Dict[int, ast.AST] = {}
    stack: List[ast.AST] = [fn]
    while stack:
        cur = stack.pop()
        for child in ast.iter_child_nodes(cur):
            parents[id(child)] = cur
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            nodes.append(child)
            stack.append(child)
    return nodes, parents


def _qualnames(tree: ast.Module) -> Dict[int, str]:
    """id(FunctionDef) -> dotted qualname through classes and functions."""
    out: Dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qn = f"{prefix}{child.name}"
                out[id(child)] = qn
                visit(child, qn + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def iter_kernel_functions(tree: ast.Module, path: str) -> Iterator[KernelFunction]:
    """Every function in ``tree`` that looks like kernel/device code."""
    qualnames = _qualnames(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        ctx_names = _ctx_param_names(node)
        nodes, parents = _collect_own(node)
        if not ctx_names:
            # Fall back: closures over an outer `ctx` name still count.
            if not any(isinstance(n, ast.Name) and n.id == "ctx" for n in nodes):
                continue
            ctx_names = {"ctx"}
        yield KernelFunction(node=node, path=path, ctx_names=ctx_names,
                             nodes=nodes, parents=parents,
                             qualname=qualnames.get(id(node), node.name))


# -- device-call classification -----------------------------------------------

def _is_ctx_name(node: ast.AST, ctx_names: Set[str]) -> bool:
    return isinstance(node, ast.Name) and node.id in ctx_names


def classify_call(call: ast.Call, ctx_names: Set[str]) -> Optional[Tuple[str, str]]:
    """Classify a call as a device-op generator.

    Returns ``("ctx", op)`` for ``ctx.<device op>(...)``, ``("sync",
    method)`` for a call that passes a bare ctx argument (sync-primitive
    methods and kernel helper generators), or ``None`` for host code.
    """
    func = call.func
    if isinstance(func, ast.Attribute) and _is_ctx_name(func.value, ctx_names):
        if func.attr in DEVICE_GEN_OPS:
            return ("ctx", func.attr)
        return None  # ctx.progress(...) and properties need no yield from
    if any(_is_ctx_name(arg, ctx_names) for arg in call.args):
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "<call>")
        return ("sync", name)
    return None


def addr_arg(call: ast.Call, op: str) -> Optional[ast.AST]:
    """The address operand of a ctx memory op (``atomic`` carries the op
    enum first; every other op leads with the address)."""
    idx = 1 if op == "atomic" else 0
    if len(call.args) > idx:
        return call.args[idx]
    for kw in call.keywords:
        if kw.arg == "addr":
            return kw.value
    return None


def dump(node: Optional[ast.AST]) -> str:
    return ast.dump(node) if node is not None else "<none>"


def keyword(call: ast.Call, name: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def addr_is_private(addr: Optional[ast.AST], private_names: Set[str]) -> bool:
    """True when the address expression involves WG identity — a per-WG
    word no other WG races on."""
    if addr is None:
        return False
    for sub in ast.walk(addr):
        if isinstance(sub, ast.Attribute) and sub.attr in PRIVATE_NAMES:
            return True
        if isinstance(sub, ast.Name) and sub.id in private_names:
            return True
    return False


def addr_base(addr: Optional[ast.AST]) -> str:
    """The storage family an address expression names.

    Strips subscripts (``member_flags[wg]`` -> ``member_flags``) and
    follows attribute chains to one dotted base (``self.lock_addr`` ->
    ``lock_addr`` since ``self`` carries no information across methods of
    the same primitive). Call-derived addresses return the callee name
    (``self._slot(t)`` -> ``_slot``) so a role hint can resolve them.
    """
    node = addr
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.BinOp):
            node = node.left
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            break
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return dump(node)
