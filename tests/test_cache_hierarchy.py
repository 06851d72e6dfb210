"""Integration tests for the cache hierarchy (L1 / optional L2 / DRAM)."""

import pytest

from repro.cache.cache import LowerPort
from repro.cache.hierarchy import MemorySubsystem, _CachePort, _DramPort
from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.trace.bus import TraceBus
from repro.trace.sinks import MemorySink


def _drain(tick, memsys, dcache, max_cycles=500):
    """Tick until the data cache of core 0 returns its responses."""
    responses = []
    for _ in range(max_cycles):
        grouped = tick(memsys)
        responses.extend(grouped.get(("d", 0), []))
        if responses and not memsys.busy:
            break
    return responses


def test_l1_miss_fills_from_dram(tick):
    config = VortexConfig(memory=MemoryConfig(latency=20, bandwidth=1))
    memsys = MemorySubsystem(config)
    dcache = memsys.dcache(0)
    assert dcache.send(0x1000, tag="load")
    responses = _drain(tick, memsys, dcache)
    assert [resp.tag for resp in responses] == ["load"]
    assert memsys.dram.perf.get("reads") == 1


def test_latency_scales_with_memory_config(tick):
    def measure(latency):
        config = VortexConfig(memory=MemoryConfig(latency=latency, bandwidth=1))
        memsys = MemorySubsystem(config)
        memsys.dcache(0).send(0x2000, tag="x")
        cycles = 0
        while True:
            cycles += 1
            if tick(memsys).get(("d", 0)):
                return cycles

    assert measure(100) > measure(10) + 60


def test_second_access_hits_without_dram_traffic(tick):
    config = VortexConfig(memory=MemoryConfig(latency=10, bandwidth=1))
    memsys = MemorySubsystem(config)
    dcache = memsys.dcache(0)
    dcache.send(0x3000, tag="first")
    _drain(tick, memsys, dcache)
    reads_after_first = memsys.dram.perf.get("reads")
    dcache.send(0x3004, tag="second")
    responses = _drain(tick, memsys, dcache)
    assert [resp.tag for resp in responses] == ["second"]
    assert memsys.dram.perf.get("reads") == reads_after_first


def test_l2_path_serves_l1_fills(tick):
    config = VortexConfig(
        enable_l2=True,
        l2cache=CacheConfig(size=64 * 1024, num_banks=4),
        memory=MemoryConfig(latency=30, bandwidth=1),
    )
    memsys = MemorySubsystem(config)
    assert memsys.l2[0] is not None
    dcache = memsys.dcache(0)
    dcache.send(0x4000, tag="via_l2")
    responses = _drain(tick, memsys, dcache)
    assert [resp.tag for resp in responses] == ["via_l2"]
    # The L2 saw the fill request from the L1.
    assert memsys.l2[0].perf.get("attempts") >= 1


def test_per_core_caches_are_private(tick):
    config = VortexConfig(num_cores=2, memory=MemoryConfig(latency=10, bandwidth=2))
    memsys = MemorySubsystem(config)
    memsys.dcache(0).send(0x5000, tag="c0")
    memsys.dcache(1).send(0x5000, tag="c1")
    got = {0: [], 1: []}
    for _ in range(200):
        grouped = tick(memsys)
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


def test_icache_responses_routed_separately(tick):
    config = VortexConfig(memory=MemoryConfig(latency=5, bandwidth=1))
    memsys = MemorySubsystem(config)
    memsys.icache(0).send(0x8000_0000, tag="fetch")
    fetched = []
    for _ in range(100):
        fetched.extend(tick(memsys).get(("i", 0), []))
    assert [r.tag for r in fetched] == ["fetch"]


# -- write-through backpressure through cache levels -------------------------------------------


def forward_lane_by_lane(monkeypatch):
    """The lane-by-lane walk as a test double: no port ever reports itself
    ``blocked``, so every queued store lane walks D$ → (L2 → L3 →) DRAM port
    and is refused where it is refused — the oracle for the bulk charge."""
    for port in (_DramPort, _CachePort):
        monkeypatch.setattr(port, "blocked", LowerPort.blocked)


def _blocked_store_cycle(tick, l3: bool, traced: bool):
    """One cycle of a store storm behind L2 (+L3) with the DRAM queue full,
    in which core 1's read hit has already taken L2 bank 0's only port.

    Core 0 then presents five store lanes: two on L2 bank 0 (another line),
    two on bank 1, one on bank 2.  Returns the subsystem and its events.
    """
    config = VortexConfig(
        num_cores=2,
        enable_l2=True,
        enable_l3=l3,
        memory=MemoryConfig(latency=200, bandwidth=1, request_queue_size=2),
    )
    memsys = MemorySubsystem(config)
    sink = MemorySink()
    bus = TraceBus([sink])
    memsys.attach_trace(bus if traced else None)
    dcache0, dcache1 = memsys.dcache(0), memsys.dcache(1)
    tick(memsys)
    assert dcache0.send(0x100 * 64, tag="warm")  # line 0x100 now lives in L2 (bank 0)
    while memsys.busy:
        tick(memsys)
    stores = [((0x200 * 64,), 0x200, 0, False), ((0x201 * 64,), 0x201, 1, False)]
    assert dcache0.send_batch(stores, 4, True, None)[0] == 2  # fills the DRAM queue
    tick(memsys)
    assert not memsys.dram.can_accept
    assert dcache1.send(0x100 * 64, tag="hit-in-l2")  # accepted although DRAM is full
    storm = [
        ((0x104 * 64, 0x104 * 64 + 4), 0x104, 0, False),
        ((0x101 * 64, 0x101 * 64 + 4), 0x101, 1, False),
        ((0x102 * 64,), 0x102, 2, False),
    ]
    assert dcache0.send_batch(storm, 8, True, None) == (0, storm, 8)
    bus.flush()
    return memsys, sink.events


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("l3", [False, True], ids=["l2", "l2-l3"])
def test_blocked_writes_are_charged_at_every_level_as_send_would(l3, traced, monkeypatch, tick):
    """The lanes a write-blocked lower port is never asked for are charged
    where a lane-by-lane walk refuses them: an L2 bank another request took
    this cycle charges ``bank_conflicts`` there and goes no further, the rest
    charge ``memq_stalls`` level by level down to DRAM's ``rejected``."""
    memsys, events = _blocked_store_cycle(tick, l3, traced)
    before = {name: dict(counters) for name, counters in memsys.counters().items()}
    l2 = memsys.l2[0].perf
    assert l2.get("bank_conflicts") == 2 and l2.get("memq_stalls") == 3
    assert memsys.dcache(0).perf.get("memq_stalls") == 5
    assert memsys.dram.perf.get("rejected") == 3
    if l3:
        assert memsys.l3.perf.get("memq_stalls") == 3 and "bank_conflicts" not in memsys.l3.perf

    forward_lane_by_lane(monkeypatch)
    twin, twin_events = _blocked_store_cycle(tick, l3, traced)
    assert twin.counters() == before
    assert twin_events == events
    if traced:
        kinds = [(e.channel, e.kind) for e in events if e.payload.get("write")]
        # Per lane the deepest level speaks first, as in a chain of ``send`` calls.
        last_lane = [("l3", "refusal")] * l3 + [("l2", "refusal"), ("dcache", "refusal")]
        assert kinds[-len(last_lane):] == last_lane
        assert ("l2", "conflict") in kinds
