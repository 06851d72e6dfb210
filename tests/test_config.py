"""Tests for the configuration dataclasses."""

import pytest

from repro.common.config import (
    CORE_DESIGN_POINTS,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    VortexConfig,
    baseline_config,
)


def test_baseline_matches_paper_defaults():
    config = baseline_config()
    assert config.core.num_warps == 4
    assert config.core.num_threads == 4
    assert config.dcache.num_banks == 4
    assert config.num_cores == 1


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        CacheConfig(line_size=48)
    with pytest.raises(ValueError):
        CacheConfig(num_banks=3)
    with pytest.raises(ValueError):
        CacheConfig(num_ports=0)


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: CacheConfig(num_ways=0), "num_ways"),
        (lambda: CacheConfig(num_banks=0), "num_banks"),
        (lambda: CacheConfig(line_size=0), "line_size"),
        (lambda: CacheConfig(num_ways=-2), "num_ways"),
        (lambda: CacheConfig(size=0), "size"),
        (lambda: CacheConfig(mshr_size=0), "mshr_size"),
        (lambda: MemoryConfig(request_queue_size=0), "request_queue_size"),
    ],
    ids=["ways0", "banks0", "line0", "ways-2", "size0", "mshr0", "queue0"],
)
def test_degenerate_geometry_is_refused_at_construction(make, field):
    """A zero or negative count would divide by zero, size a negative set
    count or stall every request later; it is a ``ValueError`` naming the field."""
    with pytest.raises(ValueError, match=field):
        make()


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"enable_l2": True, "l2cache": CacheConfig(size=128 * 1024, line_size=32)}, "l2cache"),
        ({"enable_l3": True, "l3cache": CacheConfig(size=128 * 1024, line_size=32)}, "l3cache"),
        (
            {
                "enable_l2": True,
                "enable_l3": True,
                "l2cache": CacheConfig(size=128 * 1024, line_size=128),
                "l3cache": CacheConfig(size=128 * 1024, line_size=64),
            },
            "l3cache",
        ),
    ],
    ids=["l2-below-l1", "l3-below-l1", "l3-below-l2"],
)
def test_a_lower_line_shorter_than_the_level_above_is_refused(overrides, field):
    """Each enabled level below the L1s serves whole lines of the level above."""
    with pytest.raises(ValueError, match=f"{field}.line_size"):
        VortexConfig(**overrides)


def test_disabled_or_longer_lower_lines_are_accepted():
    VortexConfig(l2cache=CacheConfig(size=128 * 1024, line_size=32))  # L2 off
    config = VortexConfig(
        enable_l2=True,
        enable_l3=True,
        l2cache=CacheConfig(size=128 * 1024, line_size=128),
        l3cache=CacheConfig(size=128 * 1024, line_size=256),
    )
    assert config.l3cache.line_size == 256


def test_cache_num_sets():
    cache = CacheConfig(size=16 * 1024, line_size=64, num_banks=4, num_ways=2)
    assert cache.num_sets * cache.num_ways * cache.num_banks * cache.line_size == cache.size


def test_core_config_limits():
    with pytest.raises(ValueError):
        CoreConfig(num_threads=0)
    with pytest.raises(ValueError):
        CoreConfig(num_threads=64)
    with pytest.raises(ValueError):
        CoreConfig(num_warps=33)


def test_memory_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(latency=0)
    with pytest.raises(ValueError):
        MemoryConfig(bandwidth=0)


def test_with_helpers_return_new_configs():
    base = baseline_config()
    scaled = base.with_cores(8)
    assert scaled.num_cores == 8 and base.num_cores == 1
    retuned = base.with_warps_threads(8, 2)
    assert (retuned.core.num_warps, retuned.core.num_threads) == (8, 2)
    ported = base.with_dcache_ports(4)
    assert ported.dcache.num_ports == 4
    memory = base.with_memory(latency=200, bandwidth=2)
    assert memory.memory.latency == 200 and memory.memory.bandwidth == 2


def test_total_threads():
    config = baseline_config().with_cores(4).with_warps_threads(8, 4)
    assert config.total_threads == 4 * 8 * 4


def test_clusters_must_divide_cores():
    with pytest.raises(ValueError):
        VortexConfig(num_cores=4, num_clusters=3)


def test_design_points_cover_table3():
    assert set(CORE_DESIGN_POINTS) == {"4W-4T", "2W-8T", "8W-2T", "4W-8T", "8W-4T"}
    assert CORE_DESIGN_POINTS["4W-4T"] == (4, 4)


def test_describe_is_flat_dict():
    summary = baseline_config().describe()
    assert summary["warps"] == 4
    assert summary["dcache_banks"] == 4
