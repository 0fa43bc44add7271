"""The seed-1 quick litmus report, run once per session through the CLI
(``python -m repro litmus run --quick --seed 1 --json``): the fixed
corpus plus four generated programs under the golden policies. The
golden corpus and the oracle tests both judge this one report."""

import contextlib
import io
import json

import pytest

from repro.cli import main


@pytest.fixture(scope="session")
def quick_litmus_run():
    """``(exit status, parsed JSON report)`` of the quick litmus run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["litmus", "run", "--quick", "--seed", "1", "--json"])
    return rc, json.loads(out.getvalue())
