"""Unit tests for kernel abstractions and the context-size model."""

import pytest

from repro.errors import ConfigError
from repro.gpu.context import ContextArena
from repro.gpu.kernel import Kernel, ResourceProfile


def dummy_body(ctx):
    yield ctx.env.timeout(1)


def test_kernel_requires_positive_grid():
    with pytest.raises(ConfigError):
        Kernel(name="k", body=dummy_body, grid_wgs=0)


def test_wis_per_wg():
    """A WG is one wavefront: its vector registers are those of the
    wavefront's work-items."""
    prof = ResourceProfile(vgprs_per_wi=1, sgprs_per_wavefront=0)
    k = Kernel(name="k", body=dummy_body, grid_wgs=1,
               wis_per_wavefront=32, resources=prof)
    assert k.context_bytes() == 4 * 32


def test_context_bytes_formula():
    prof = ResourceProfile(vgprs_per_wi=16, sgprs_per_wavefront=64,
                           lds_bytes=1024)
    k = Kernel(name="k", body=dummy_body, grid_wgs=1,
               wis_per_wavefront=64, resources=prof)
    expected = 16 * 4 * 64 + 64 * 4 + 1024
    assert k.context_bytes() == expected


def test_paper_context_range():
    """The Figure 5 profiles must land in the paper's 2-10 KB band."""
    from repro.workloads.registry import BENCHMARKS
    from repro.gpu.gpu import GPU
    from repro.gpu.config import GPUConfig
    from repro.core.policies import awg
    from repro.workloads.registry import build_benchmark

    gpu = GPU(GPUConfig(), awg())
    sizes = {}
    for name in BENCHMARKS:
        k = build_benchmark(name, gpu, total_wgs=8, wgs_per_group=2)
        sizes[name] = k.context_bytes() / 1024.0
    assert min(sizes.values()) >= 1.5
    assert max(sizes.values()) <= 10.5
    assert sizes["TBEX_LG"] == max(sizes.values())  # LDS-heavy exchange


def test_context_arena_tracks_saves():
    arena = ContextArena()
    arena.save(1, 2048)
    arena.save(2, 4096)
    assert arena.current_bytes == 6144
    assert arena.peak_bytes == 6144
    arena.restore(1)
    assert arena.current_bytes == 4096
    assert arena.peak_bytes == 6144


def test_context_arena_restore_unknown_is_noop():
    arena = ContextArena()
    arena.restore(99)
    assert arena.current_bytes == 0 and arena.peak_bytes == 0
