"""Crash recovery for experiment sweeps: checkpoints, bundles, shrinking.

The paper's subject is surviving resource loss mid-execution; this
package gives the experiment pipeline the same property. Three layers:

- :mod:`repro.recovery.manifest` — atomic, versioned checkpoint
  manifests for :func:`~repro.experiments.matrix.run_matrix` sweeps, so
  a crashed or interrupted campaign resumes executing only the missing
  cells (``python -m repro matrix --resume``).
- :mod:`repro.recovery.bundle` — self-contained, replayable JSON repro
  bundles for failing matrix cells and violating litmus cells, one
  envelope for both kinds (``python -m repro replay BUNDLE``).
- :mod:`repro.recovery.shrink` — a delta-debugging minimizer that
  applies the bundled request's own reductions while preserving the
  failure (``python -m repro shrink BUNDLE``).
"""

from repro.recovery.bundle import (  # noqa: F401
    BUNDLE_VERSION, load_bundle, make_bundle, replay_bundle,
    validate_bundle, write_bundle,
)
from repro.recovery.manifest import (  # noqa: F401
    MANIFEST_VERSION, SweepCheckpoint, checkpoint_enabled,
    default_checkpoint_dir,
)
from repro.recovery.shrink import ShrinkResult, shrink_bundle  # noqa: F401
