"""Crash recovery for experiment sweeps: bundles and shrinking.

The paper's subject is surviving resource loss mid-execution; this
package gives the experiment pipeline the same property. A crashed or
interrupted sweep needs nothing from here to resume: every completed
cell is already in the result cache (:mod:`repro.experiments.cache`),
so re-running the sweep executes only the missing cells. For cells that
*fail*, two layers:

- :mod:`repro.recovery.bundle` — self-contained, replayable JSON repro
  bundles for failing matrix cells and violating litmus cells, one
  envelope for both kinds (``python -m repro replay BUNDLE``).
- :mod:`repro.recovery.shrink` — a delta-debugging minimizer that
  applies the bundled request's own reductions while preserving the
  failure (``python -m repro shrink BUNDLE``), and the one writer that
  drops violation bundles (and, on request, their minimal twins) for
  ``faults --bundles`` and ``litmus run --bundles``.
"""

from repro.recovery.bundle import (  # noqa: F401
    BUNDLE_VERSION, load_bundle, make_bundle, replay_bundle,
    validate_bundle, write_bundle,
)
from repro.recovery.shrink import (  # noqa: F401
    ShrinkResult, shrink_bundle, write_violation_bundles,
)
