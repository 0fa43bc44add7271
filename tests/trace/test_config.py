"""TraceConfig validation and CLI-spec parsing."""

import re
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.trace import CATEGORIES, TraceConfig
from repro.trace.config import BUFFER_SIZE


def test_defaults_select_every_category():
    cfg = TraceConfig()
    assert cfg.categories == CATEGORIES


def test_lists_normalize_to_tuples():
    cfg = TraceConfig(categories=["wg", "sync"])
    assert cfg.categories == ("wg", "sync")


def test_unknown_category_rejected():
    with pytest.raises(ConfigError, match="unknown trace categories"):
        TraceConfig(categories=("wg", "gpu"))


def test_duplicate_category_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        TraceConfig(categories=("wg", "wg"))


def test_ring_bound_is_not_a_setting():
    # the ring keeps the last BUFFER_SIZE events; a stale setting fails
    # loudly instead of being ignored
    assert BUFFER_SIZE == 65_536
    with pytest.raises(TypeError, match="buffer_size"):
        TraceConfig(buffer_size=128)
    with pytest.raises(TypeError, match="buffer_size"):
        TraceConfig.parse("wg", buffer_size=128)


@pytest.mark.parametrize("spec", ["", "all"])
def test_parse_all(spec):
    assert TraceConfig.parse(spec).categories == CATEGORIES


def test_parse_comma_list():
    cfg = TraceConfig.parse(" wg, sync ,dispatch ")
    assert cfg.categories == ("wg", "sync", "dispatch")


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
