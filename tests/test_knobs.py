"""The program's knobs: ``REPRO_*`` environment variables and the
fields of its config dataclasses.

The set of knob names under ``src/`` is pinned here, so a new knob
cannot land without this list changing, and each runtime knob must be
documented in the README. The config census below does the same for
settings.
"""

import ast
import inspect
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.policies import PolicySpec
from repro.experiments.matrix import RunRequest
from repro.experiments.runner import Scenario
from repro.gpu.config import GPUConfig
from repro.gpu.kernel import Kernel
from repro.trace.config import TraceConfig
from repro.workloads.registry import BenchmarkParams

ROOT = Path(__file__).resolve().parents[1]

#: knobs a user sets to change how the program runs
RUNTIME_KNOBS = {"REPRO_JOBS", "REPRO_CACHE_DIR"}
#: knobs only tests set: none. Test drills live in ``tests/`` (the kill
#: drill is a ``RunRequest`` subclass there), and re-baselining the
#: goldens, ``REPRO_UPDATE_GOLDENS``, is read by the tests alone.
TEST_HOOKS = set()


def _knobs_under_src():
    pattern = re.compile(r"REPRO_[A-Z][A-Z_]*")
    return {name for path in (ROOT / "src").rglob("*.py")
            for name in pattern.findall(path.read_text())}


def test_src_names_exactly_the_declared_knobs():
    assert _knobs_under_src() == RUNTIME_KNOBS | TEST_HOOKS


def test_readme_documents_every_runtime_knob():
    readme = (ROOT / "README.md").read_text()
    assert sorted(k for k in RUNTIME_KNOBS if k not in readme) == []


# -- config census -------------------------------------------------------------
#
# Every settable value in a config dataclass must change a run. The field
# names are pinned, so a new setting cannot land without this list
# changing, and every machine and policy field must be read somewhere in
# the program besides the module that declares it.

CONFIG_FIELDS = {
    GPUConfig: (
        "clock_ghz", "num_cus", "simds_per_cu", "block_bytes",
        "l1_size", "l1_assoc", "l1_latency", "l2_size", "l2_assoc",
        "l2_latency", "dram_channels", "dram_latency", "dram_service",
        "l2_banks", "l2_atomic_service", "l2_load_service",
        "l2_store_service", "issue_cycles", "compute_quantum",
        "max_wgs_per_cu", "context_switch_overhead", "resume_latency",
        "syncmon_sets", "syncmon_assoc", "waiting_wg_list_size",
        "bloom_filter_count", "bloom_bits", "bloom_hashes",
        "monitor_log_entries", "cp_check_interval", "cp_check_cost",
        "sleep_backoff_max", "log_full_retry", "max_cycles",
        "deadlock_window", "seed", "trace", "fault_plan", "sanitize",
    ),
    PolicySpec: (
        "name", "mechanism", "notify", "resume", "timeout_interval",
        "backstop_timeout", "backoff_max", "predict_stall",
    ),
    Scenario: (
        "label", "total_wgs", "wgs_per_group", "max_wgs_per_cu",
        "iterations", "episodes", "resource_loss_at_us", "deadlock_window",
        "seed", "fault_plan",
    ),
    RunRequest: (
        "benchmark", "policy", "scenario", "validate", "config_overrides",
    ),
    TraceConfig: ("categories",),
    BenchmarkParams: (
        "total_wgs", "wgs_per_group", "iterations", "work_cycles",
        "cs_cycles", "episodes",
    ),
    # a WG is one coroutine: no worker body, one wavefront
    Kernel: (
        "name", "body", "grid_wgs", "wis_per_wavefront", "resources",
        "args",
    ),
}

#: the classes whose every field must be read by the program
READ_CHECKED = (GPUConfig, PolicySpec)


@pytest.mark.parametrize("cls", list(CONFIG_FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(cls):
    assert tuple(f.name for f in fields(cls)) == CONFIG_FIELDS[cls]


def _names_read(skip: Path):
    """Attribute names loaded, and ``config_overrides`` keys set, in every
    module under ``src/`` except ``skip``."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        if path == skip:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.keyword)
                  and node.arg == "config_overrides"
                  and isinstance(node.value, ast.Dict)):
                names.update(key.value for key in node.value.keys
                             if isinstance(key, ast.Constant))
    return names


@pytest.mark.parametrize("cls", READ_CHECKED, ids=lambda c: c.__name__)
def test_every_machine_and_policy_field_is_read(cls):
    module = Path(sys.modules[cls.__module__].__file__).resolve()
    read = _names_read(module)
    assert [f.name for f in fields(cls) if f.name not in read] == []


# -- entry-point census ------------------------------------------------------
#
# An artifact is a triple: ``requests(scale)`` lists its cells and
# ``table(matrix)`` tabulates their results (table1, fig5, fig6 and
# prior_work run no cell sweep, so their ``table()`` takes no argument). The CLI runs the
# matrix between the two, so neither takes jobs or a cache. The
# parameter names are pinned, so a parameter only a test would set
# cannot return unnoticed.

SWEEP = {"requests": ("scale",), "table": ("matrix",)}

ENTRY_POINT_PARAMS = {
    **{name: SWEEP for name in (
        "table2", "fig2", "fig7", "fig8", "fig9", "fig11", "fig13",
        "fig14", "fig15", "ablation_syncmon", "ablation_log",
        "ablation_resume", "ablation_stall")},
    "table1": {"table": ()},
    "fig5": {"table": ()},
    "fig6": {"table": ()},
    "prior_work": {"table": ()},
    # besides the artifacts: every parameter is one the CLI passes
    "faults_campaign.run": ("seed", "smoke", "plans", "jobs", "cache",
                            "bundle_dir", "shrink"),
    "run_benchmark": ("name", "policy", "scenario", "validate", "keep_gpu",
                      "config_overrides"),
}


def _params(fn):
    return tuple(inspect.signature(fn).parameters)


def _entry_points():
    from repro.cli import ARTIFACTS
    from repro.experiments import faults_campaign, run_benchmark

    found = {
        name: {role: _params(getattr(artifact, role))
               for role in ("requests", "table")
               if getattr(artifact, role) is not None}
        for name, artifact in ARTIFACTS.items()
    }
    found["faults_campaign.run"] = _params(faults_campaign.run)
    found["run_benchmark"] = _params(run_benchmark)
    return found


def test_entry_point_parameters_are_pinned():
    assert _entry_points() == ENTRY_POINT_PARAMS
