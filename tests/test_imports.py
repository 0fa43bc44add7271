"""The package's import graph is cycle-free from every entry point.

``repro.recovery.bundle`` imports ``RunRequest`` and ``LitmusRequest``
at module scope, the litmus corpus lives under ``repro.litmus``, not
``repro.workloads``, and the sync primitives take their role
annotations from ``repro.sync.roles``, not ``repro.workloads`` (whose
registry imports the primitives back). All three rely on no import path closing a cycle,
which only shows when a module is the *first* one a fresh interpreter
imports: inside one pytest process the earlier tests have already
loaded everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("module", [
    "repro.recovery.bundle",
    "repro.litmus",
    "repro.workloads",
    "repro.experiments.cache",
    "repro.cli",
    "repro.sync",
    "repro.sync.mutex",
    "repro.sync.barrier",
])
def test_module_imports_first_in_a_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
