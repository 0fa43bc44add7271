"""The ``REPRO_*`` environment knobs.

The set of knob names under ``src/`` is pinned here, so a new knob
cannot land without this list changing, and each runtime knob must be
documented in the README.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: knobs a user sets to change how the program runs
RUNTIME_KNOBS = {"REPRO_JOBS", "REPRO_CACHE_DIR"}
#: knobs only tests set: the `_KILL` drill's sentinel. (Re-baselining the
#: goldens, ``REPRO_UPDATE_GOLDENS``, is read by the tests alone.)
TEST_HOOKS = {"REPRO_STRESS_KILL"}


def _knobs_under_src():
    pattern = re.compile(r"REPRO_[A-Z][A-Z_]*")
    return {name for path in (ROOT / "src").rglob("*.py")
            for name in pattern.findall(path.read_text())}


def test_src_names_exactly_the_declared_knobs():
    assert _knobs_under_src() == RUNTIME_KNOBS | TEST_HOOKS


def test_readme_documents_every_runtime_knob():
    readme = (ROOT / "README.md").read_text()
    assert sorted(k for k in RUNTIME_KNOBS if k not in readme) == []
