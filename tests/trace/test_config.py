"""TraceConfig validation and CLI-spec parsing."""

import re
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.trace import CATEGORIES, TraceConfig


def test_defaults_select_every_category():
    cfg = TraceConfig()
    assert cfg.categories == CATEGORIES
    assert cfg.buffer_size == 65_536


def test_lists_normalize_to_tuples():
    cfg = TraceConfig(categories=["wg", "sync"])
    assert cfg.categories == ("wg", "sync")


def test_unknown_category_rejected():
    with pytest.raises(ConfigError, match="unknown trace categories"):
        TraceConfig(categories=("wg", "gpu"))


def test_duplicate_category_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        TraceConfig(categories=("wg", "wg"))


def test_buffer_size_must_be_positive():
    with pytest.raises(ConfigError, match="buffer_size"):
        TraceConfig(buffer_size=0)


@pytest.mark.parametrize("spec", ["", "all"])
def test_parse_all(spec):
    assert TraceConfig.parse(spec).categories == CATEGORIES


def test_parse_comma_list():
    cfg = TraceConfig.parse(" wg, sync ,dispatch ", buffer_size=128)
    assert cfg.categories == ("wg", "sync", "dispatch")
    assert cfg.buffer_size == 128


def test_parse_bad_name():
    with pytest.raises(ConfigError):
        TraceConfig.parse("wg,bogus")


def test_readme_lists_every_category():
    readme = (Path(__file__).resolve().parents[2] / "README.md").read_text()
    match = re.search(r"pick categories from\s+`([^`]+)`", readme)
    assert match, "README lost its trace-category list"
    listed = tuple(name.strip() for name in match.group(1).split(","))
    assert listed == CATEGORIES


def test_stale_trace_switches_fail_loudly():
    # memory ops are counted by the stats (device.*/hierarchy.*), not
    # the tracer, and the Figure 6 switch is GPUConfig.trace
    from repro.gpu.config import GPUConfig

    with pytest.raises(ConfigError, match="unknown trace categories"):
        TraceConfig(categories=("wg", "mem"))
    with pytest.raises(TypeError, match="trace_states"):
        GPUConfig(trace_states=True)
