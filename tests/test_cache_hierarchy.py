"""Integration tests for the cache hierarchy (L1 / optional L2 / DRAM)."""


from repro.cache.hierarchy import MemorySubsystem
from repro.common.config import CacheConfig, MemoryConfig, VortexConfig


def _drain(memsys, dcache, max_cycles=500):
    """Tick until the data cache of core 0 returns its responses."""
    responses = []
    for _ in range(max_cycles):
        grouped = memsys.tick()
        responses.extend(grouped.get(("d", 0), []))
        if responses and not memsys.busy:
            break
    return responses


def test_l1_miss_fills_from_dram():
    config = VortexConfig(memory=MemoryConfig(latency=20, bandwidth=1))
    memsys = MemorySubsystem(config)
    dcache = memsys.dcache(0)
    assert dcache.send(0x1000, tag="load")
    responses = _drain(memsys, dcache)
    assert [resp.tag for resp in responses] == ["load"]
    assert memsys.dram.perf.get("reads") == 1


def test_latency_scales_with_memory_config():
    def measure(latency):
        config = VortexConfig(memory=MemoryConfig(latency=latency, bandwidth=1))
        memsys = MemorySubsystem(config)
        memsys.dcache(0).send(0x2000, tag="x")
        cycles = 0
        while True:
            cycles += 1
            if memsys.tick().get(("d", 0)):
                return cycles

    assert measure(100) > measure(10) + 60


def test_second_access_hits_without_dram_traffic():
    config = VortexConfig(memory=MemoryConfig(latency=10, bandwidth=1))
    memsys = MemorySubsystem(config)
    dcache = memsys.dcache(0)
    dcache.send(0x3000, tag="first")
    _drain(memsys, dcache)
    reads_after_first = memsys.dram.perf.get("reads")
    dcache.send(0x3004, tag="second")
    responses = _drain(memsys, dcache)
    assert [resp.tag for resp in responses] == ["second"]
    assert memsys.dram.perf.get("reads") == reads_after_first


def test_l2_path_serves_l1_fills():
    config = VortexConfig(
        enable_l2=True,
        l2cache=CacheConfig(size=64 * 1024, num_banks=4),
        memory=MemoryConfig(latency=30, bandwidth=1),
    )
    memsys = MemorySubsystem(config)
    assert memsys.l2[0] is not None
    dcache = memsys.dcache(0)
    dcache.send(0x4000, tag="via_l2")
    responses = _drain(memsys, dcache)
    assert [resp.tag for resp in responses] == ["via_l2"]
    # The L2 saw the fill request from the L1.
    assert memsys.l2[0].perf.get("attempts") >= 1


def test_per_core_caches_are_private():
    config = VortexConfig(num_cores=2, memory=MemoryConfig(latency=10, bandwidth=2))
    memsys = MemorySubsystem(config)
    memsys.dcache(0).send(0x5000, tag="c0")
    memsys.dcache(1).send(0x5000, tag="c1")
    got = {0: [], 1: []}
    for _ in range(200):
        grouped = memsys.tick()
        for core in (0, 1):
            got[core].extend(grouped.get(("d", core), []))
    assert [r.tag for r in got[0]] == ["c0"]
    assert [r.tag for r in got[1]] == ["c1"]
    # Each L1 missed independently.
    assert memsys.dram.perf.get("reads") == 2


def test_counters_snapshot_contains_all_components():
    config = VortexConfig(num_cores=2, enable_l2=True)
    memsys = MemorySubsystem(config)
    counters = memsys.counters()
    assert "dram" in counters
    assert "dcache0" in counters and "icache1" in counters
    assert "l2_0" in counters


def test_icache_responses_routed_separately():
    config = VortexConfig(memory=MemoryConfig(latency=5, bandwidth=1))
    memsys = MemorySubsystem(config)
    memsys.icache(0).send(0x8000_0000, tag="fetch")
    fetched = []
    for _ in range(100):
        fetched.extend(memsys.tick().get(("i", 0), []))
    assert [r.tag for r in fetched] == ["fetch"]
