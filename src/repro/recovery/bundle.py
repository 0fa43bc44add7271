"""Repro bundles: self-contained, replayable records of failures.

A bundle is one JSON document carrying everything needed to re-run a
failure on another machine with no access to the run that produced
it: the request's canonical ``spec()``, the *expected* failure (what
must happen again for the replay to count as a reproduction), and
provenance (code fingerprint, python, timestamp). Two kinds share this
envelope, told apart by ``bundle["kind"]``:

``awg-repro-bundle``
    one failing matrix cell, a
    :class:`~repro.experiments.matrix.RunRequest` (benchmark, policy,
    scenario, fault plan, seed, overrides), plus the original structured
    ``failure`` record. Emitted by the fault-injection campaign.
``awg-repro-litmus-bundle``
    one violating litmus cell, a
    :class:`~repro.litmus.shrinklink.LitmusRequest` (generated program,
    policy, seed). Emitted by ``litmus run --bundles``.

Both are consumed by ``python -m repro replay BUNDLE`` and the
:mod:`repro.recovery.shrink` minimizer. Each kind maps to its request
type, imported at module scope (:data:`_KINDS`); that type does the
kind-specific work: ``check_bundle``/``bundle_stem`` (document shape and
filename), ``observe``/``matches`` (replay), ``size``/``reductions``
(shrinking).

Cell expected-failure modes (``bundle["expected"]["mode"]``):

``diagnosis``
    the run must end in a watchdog diagnosis with the same stable
    :func:`~repro.gpu.diagnostics.diagnosis_signature` (deadlock vs
    livelock kind — cycle counts and WG ids legitimately drift when the
    scenario is shrunk)
``exception``
    the simulation must raise the same exception type

Litmus modes: ``model-violation`` (the replay must judge ``model``
``violated`` again) and ``contract`` (the replay must hang on a cell the
static spec calls MUST_COMPLETE again).

The schema is versioned (:data:`BUNDLE_VERSION`); loaders reject
bundles from other versions rather than mis-replaying them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.durability import write_atomic_text
from repro.errors import ConfigError
from repro.experiments.cache import code_fingerprint
from repro.experiments.matrix import RunRequest
from repro.gpu.diagnostics import diagnosis_signature
from repro.litmus.shrinklink import LitmusRequest

#: bump when the bundle layout changes; replay refuses other versions
BUNDLE_VERSION = 2

#: the document's ``kind`` marker (distinguishes bundles from cache
#: entries and other JSON when pointed at the wrong file)
BUNDLE_KIND = "awg-repro-bundle"
LITMUS_BUNDLE_KIND = "awg-repro-litmus-bundle"

#: top-level keys every valid bundle carries, schema-stability-tested
BUNDLE_KEYS = ("version", "kind", "request", "expected", "failure",
               "provenance")
LITMUS_BUNDLE_KEYS = ("version", "kind", "request", "expected",
                      "provenance")

#: kind -> (request type, top-level keys)
_KINDS = {
    BUNDLE_KIND: (RunRequest, BUNDLE_KEYS),
    LITMUS_BUNDLE_KIND: (LitmusRequest, LITMUS_BUNDLE_KEYS),
}


def request_type(kind: str) -> type:
    """The request class that replays and shrinks bundles of ``kind``."""
    return _KINDS[kind][0]


def derive_expected(
    failure: Optional[Dict[str, Any]] = None,
    result: Any = None,
) -> Dict[str, Any]:
    """The expected-failure clause for a cell bundle, from either a
    matrix failure record (the simulation raised) or a deadlocked
    :class:`RunResult` (e.g. an IFP-contract violation in the faults
    campaign)."""
    if failure is not None:
        return {"mode": "exception", "type": failure.get("type", "Exception")}
    if result is not None and getattr(result, "deadlocked", False):
        signature = diagnosis_signature(result.diagnosis)
        return {
            "mode": "diagnosis",
            "signature": signature or {"kind": "deadlock"},
        }
    raise ConfigError(
        "cannot derive an expected failure: need a failure record or a "
        "deadlocked result")


def make_bundle(
    request: Any,
    failure: Optional[Dict[str, Any]] = None,
    result: Any = None,
    expected: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a bundle document for one failure.

    ``request`` is a :class:`~repro.experiments.matrix.RunRequest` or a
    :class:`~repro.litmus.shrinklink.LitmusRequest`; its type picks the
    bundle kind. ``expected`` overrides the derived expected-failure
    clause (required for litmus bundles, whose evidence lives in the
    model judgments, not a failure record)."""
    kind = next(k for k, (cls, _keys) in _KINDS.items()
                if isinstance(request, cls))
    if expected is None:
        expected = derive_expected(failure=failure, result=result)
    bundle = {
        "version": BUNDLE_VERSION,
        "kind": kind,
        "request": request.spec(),
        "expected": expected,
        "provenance": {
            "fingerprint": code_fingerprint(),
            "python": sys.version.split()[0],
            "created_at": time.time(),
        },
    }
    if "failure" in _KINDS[kind][1]:
        trimmed_failure = None
        if failure is not None:
            trimmed_failure = {k: failure[k] for k in ("type", "message")
                               if k in failure}
        elif result is not None:
            trimmed_failure = {
                "type": "ContractViolation",
                "message": getattr(result, "reason", ""),
                "diagnosis": getattr(result, "diagnosis", None),
            }
        bundle["failure"] = trimmed_failure
    return bundle


def validate_bundle(bundle: Any) -> Dict[str, Any]:
    """Check a loaded document is a replayable bundle; returns it."""
    if not isinstance(bundle, dict):
        raise ConfigError("bundle must be a JSON object")
    if bundle.get("kind") not in _KINDS:
        raise ConfigError(
            f"not a repro bundle (kind={bundle.get('kind')!r}, "
            f"expected one of {sorted(_KINDS)})")
    if bundle.get("version") != BUNDLE_VERSION:
        raise ConfigError(
            f"bundle version {bundle.get('version')!r} is not supported "
            f"(this build reads version {BUNDLE_VERSION})")
    missing = [k for k in _KINDS[bundle["kind"]][1] if k not in bundle]
    if missing:
        raise ConfigError(f"bundle is missing keys: {missing}")
    expected = bundle["expected"]
    if not isinstance(expected, dict) or "mode" not in expected:
        raise ConfigError("bundle expected clause must carry a mode")
    request_type(bundle["kind"]).check_bundle(bundle["request"], expected)
    return bundle


def bundle_name(bundle: Dict[str, Any]) -> str:
    """Deterministic filename: request identity + expected mode + spec
    hash (the hash keeps shrunken variants of the same cell distinct)."""
    request = bundle["request"]
    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"),
                           default=str)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:8]
    stem = request_type(bundle["kind"]).bundle_stem(request)
    return f"{stem}-{bundle['expected']['mode']}-{digest}.json"


def write_bundle(bundle: Dict[str, Any],
                 out_dir: os.PathLike) -> Path:
    """Atomically persist one bundle (serialized before the first file
    operation, written by :func:`repro.durability.write_atomic_text`);
    returns its path."""
    validate_bundle(bundle)
    text = json.dumps(bundle, indent=2, sort_keys=True, default=str)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / bundle_name(bundle)
    write_atomic_text(path, text)
    return path


def load_bundle(path: os.PathLike) -> Dict[str, Any]:
    try:
        document = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"no bundle at {path}")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"unreadable bundle {path}: {exc}")
    return validate_bundle(document)


def replay_bundle(bundle: Dict[str, Any],
                  trace: bool = False) -> Dict[str, Any]:
    """Re-run a bundle's request and check the recorded failure recurs.

    Returns ``{"reproduced", "expected", "observed", "request"}``; for
    cell bundles ``observed`` carries the replayed result payload (and,
    with ``trace=True``, its exported Chrome trace inside that payload)
    for post-mortem inspection. Litmus bundles reject ``trace``."""
    validate_bundle(bundle)
    request = request_type(bundle["kind"]).from_spec(bundle["request"])
    expected = bundle["expected"]
    observed = request.observe(expected, trace=trace)
    return {
        "reproduced": request.matches(expected, observed),
        "expected": expected,
        "observed": observed,
        "request": bundle["request"],
    }
