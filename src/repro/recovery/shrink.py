"""Delta-debugging minimizer for failing repro bundles.

``python -m repro shrink BUNDLE`` takes a bundle of either kind whose
failure replays (:func:`~repro.recovery.bundle.replay_bundle`) and
greedily applies the request's one-step ``reductions()`` — for a matrix
cell, dropping or thinning fault-plan families and halving scenario
knobs; for a litmus cell, dropping WGs and actions and halving work —
re-replaying after every candidate step and keeping only steps that
preserve the failure.

The search is deterministic: candidates are enumerated in a fixed order,
the simulator is seeded, and every accepted step strictly reduces the
request's ``size()``, so two invocations on the same bundle produce the
same minimal bundle and the same shrink log. Termination is guaranteed
by monotonicity — the size metric is a non-negative integer that
decreases on every accepted step — plus a trial budget for pathological
predicates.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.durability import write_atomic_text
from repro.errors import ReproError
from repro.recovery.bundle import (
    make_bundle, replay_bundle, request_type, validate_bundle, write_bundle,
)

#: hard ceiling on replay attempts (the greedy loop normally converges
#: in far fewer — each accepted step restarts a ~dozen-candidate pass)
DEFAULT_MAX_TRIALS = 200


@dataclass
class ShrinkResult:
    """Outcome of one :func:`shrink_bundle` run."""

    #: the input bundle, untouched
    original: Dict[str, Any]
    #: the minimal bundle still reproducing the failure (== original when
    #: no shrink step was accepted)
    minimal: Dict[str, Any]
    #: every candidate tried: {step, dimension, from, to, accepted, size}
    log: List[Dict[str, Any]] = field(default_factory=list)
    #: replay invocations spent
    trials: int = 0
    initial_size: int = 0
    final_size: int = 0

    @property
    def shrunk(self) -> bool:
        return self.final_size < self.initial_size

    def render(self) -> str:
        lines = [
            f"shrink: size {self.initial_size} -> {self.final_size} "
            f"in {self.trials} replays "
            f"({sum(1 for e in self.log if e['accepted'])} accepted steps)"
        ]
        for entry in self.log:
            mark = "+" if entry["accepted"] else "-"
            lines.append(
                f"  {mark} {entry['dimension']}: {entry['from']} -> "
                f"{entry['to']} (size {entry['size']})")
        return "\n".join(lines)


def shrink_bundle(
    bundle: Dict[str, Any],
    max_trials: int = DEFAULT_MAX_TRIALS,
    replay: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
) -> ShrinkResult:
    """Minimize a failing bundle while preserving its failure.

    The input bundle must reproduce (its replay must match its expected
    clause) — a bundle that does not reproduce as-is cannot be shrunk
    meaningfully and raises :class:`ReproError`. ``replay`` overrides
    the replay function (unit tests substitute a synthetic predicate).
    """
    validate_bundle(bundle)
    replay = replay or replay_bundle
    expected = bundle["expected"]

    def bundle_for(request: Any) -> Dict[str, Any]:
        return make_bundle(request, failure=bundle.get("failure"),
                           expected=expected)

    trials = 0

    def reproduces(request: Any) -> bool:
        nonlocal trials
        trials += 1
        try:
            return bool(replay(bundle_for(request))["reproduced"])
        except ReproError:
            return False  # candidate spec is not even constructible

    current = request_type(bundle["kind"]).from_spec(bundle["request"])
    initial_size = current.size()
    if not reproduces(current):
        raise ReproError(
            "bundle does not reproduce its recorded failure as-is; "
            "nothing to shrink (re-record it or check the code "
            "fingerprint in its provenance)")

    log: List[Dict[str, Any]] = []
    step = 0
    improved = True
    while improved and trials < max_trials:
        improved = False
        size = current.size()
        for dimension, src, dst, candidate in current.reductions():
            if trials >= max_trials:
                break
            candidate_size = candidate.size()
            if candidate_size >= size:
                continue  # not a strict reduction; skip without a replay
            accepted = reproduces(candidate)
            step += 1
            log.append({
                "step": step,
                "dimension": dimension,
                "from": src,
                "to": dst,
                "accepted": accepted,
                "size": candidate_size,
            })
            if accepted:
                current = candidate
                improved = True
                break  # restart candidate enumeration from the new point

    return ShrinkResult(
        original=bundle,
        minimal=bundle_for(current),
        log=log,
        trials=trials,
        initial_size=initial_size,
        final_size=current.size(),
    )


def write_violation_bundles(
    bundles: Iterable[Dict[str, Any]],
    out_dir: os.PathLike,
    shrink: bool = False,
) -> List[str]:
    """Write each violation bundle into ``out_dir``; returns every path
    written. With ``shrink``, each bundle that reproduces in-process is
    also minimized: its minimal twin is written under its own
    content-derived name, and a ``.shrinklog.json`` next to the source
    bundle records both paths and the shrink steps."""
    paths: List[str] = []
    for bundle in bundles:
        path = write_bundle(bundle, out_dir)
        paths.append(str(path))
        if not shrink:
            continue
        try:
            shrunk = shrink_bundle(bundle)
        except ReproError:
            continue  # not reproducible in-process; keep the full bundle
        minimal = write_bundle(shrunk.minimal, out_dir)
        if minimal != path:
            paths.append(str(minimal))
        log_path = Path(str(path).replace(".json", ".shrinklog.json"))
        write_atomic_text(log_path, json.dumps({
            "source": str(path),
            "minimal": str(minimal),
            "initial_size": shrunk.initial_size,
            "final_size": shrunk.final_size,
            "trials": shrunk.trials,
            "log": shrunk.log,
        }, indent=2, sort_keys=True))
        paths.append(str(log_path))
    return paths
