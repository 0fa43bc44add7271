"""Progress-model litmus harness.

Executable OBE / Linear / IFP specs (:mod:`repro.litmus.models`), a
seeded litmus-program generator (:mod:`repro.litmus.generate`), the
committed ``LIT_*`` corpus (:mod:`repro.litmus.corpus`), a
differential oracle that runs every program across the registered
policies and judges the observed schedules (:mod:`repro.litmus.oracle`),
and a shrink link that turns violating schedules into minimal
self-contained repro bundles (:mod:`repro.litmus.shrinklink`; the
bundle envelope, replay and shrink loop are :mod:`repro.recovery`'s).
"""

from repro.litmus.generate import (
    LitmusProgram,
    canonicalize,
    interpret,
    program_name,
    random_corpus,
    validate_program,
)
from repro.litmus.models import (
    IFP,
    LINEAR,
    MODELS,
    OBE,
    SATISFIED,
    VACUOUS,
    VIOLATED,
    Judgment,
    ObservedSchedule,
    ProgressModel,
    claimed_model,
    expected_cell,
    judge_all,
    weaker_or_equal,
)
from repro.litmus.oracle import (
    LitmusReport,
    LitmusRun,
    golden_policies,
    run_corpus,
    run_litmus,
)
from repro.litmus.shrinklink import LitmusRequest, violation_bundles

__all__ = [
    "LitmusProgram",
    "canonicalize",
    "interpret",
    "program_name",
    "random_corpus",
    "validate_program",
    "OBE",
    "LINEAR",
    "IFP",
    "SATISFIED",
    "VIOLATED",
    "VACUOUS",
    "MODELS",
    "Judgment",
    "ObservedSchedule",
    "ProgressModel",
    "claimed_model",
    "expected_cell",
    "judge_all",
    "weaker_or_equal",
    "LitmusReport",
    "LitmusRun",
    "golden_policies",
    "run_corpus",
    "run_litmus",
    "LitmusRequest",
    "violation_bundles",
]
