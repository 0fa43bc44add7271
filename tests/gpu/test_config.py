"""Unit tests for GPUConfig."""

import pytest

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig


def test_table1_defaults():
    cfg = GPUConfig()
    assert cfg.num_cus == 8
    assert cfg.clock_ghz == 2.0
    assert cfg.simds_per_cu == 2
    assert cfg.l1_size == 32 * 1024 and cfg.l1_assoc == 16
    assert cfg.l1_latency == 30
    assert cfg.l2_size == 512 * 1024 and cfg.l2_latency == 50
    assert cfg.dram_channels == 4


def test_awg_structure_defaults_match_paper():
    cfg = GPUConfig()
    assert cfg.syncmon_conditions == 1024  # 4-way x 256 sets
    assert cfg.waiting_wg_list_size == 512
    assert cfg.bloom_filter_count == 512
    assert cfg.bloom_bits == 24
    assert cfg.bloom_hashes == 6


def test_wg_capacity():
    cfg = GPUConfig(num_cus=4, max_wgs_per_cu=3)
    assert cfg.wg_capacity == 12


def test_cycle_conversions():
    cfg = GPUConfig()
    assert cfg.cycles(50.0) == 100_000  # 50 us at 2 GHz
    assert cfg.microseconds(100_000) == pytest.approx(50.0)


def test_describe_renders_table1():
    from repro.experiments import table1

    desc = {row: cells["value"] for row, cells in table1.run().data.items()}
    assert desc["Compute Units"] == "8"
    assert "30 cycles" in desc["L1 cache / CU"]
    assert "DDR3" in desc["DRAM"]
    # rows the simulator does not model are the paper's text
    assert desc["SIMD width"] == "64"
    assert desc["Instruction Cache / 4 CUs"] == "32 KB, 8-way, 4 cycles"


@pytest.mark.parametrize("bad", [
    {"num_cus": 0},
    {"max_wgs_per_cu": 0},
    {"l2_banks": 0},
    {"syncmon_sets": 100},  # not a power of two
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ConfigError):
        GPUConfig(**bad)
