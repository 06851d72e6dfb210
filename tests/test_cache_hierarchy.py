"""Integration tests for the cache hierarchy (L1 / optional L2 / DRAM)."""

from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import LowerPort, RequestGroup
from repro.cache.hierarchy import MemorySubsystem, _CachePort, _DramPort
from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.mem.dram import MemRequest
from repro.trace.bus import TraceBus
from repro.trace.sinks import MemorySink

from test_cache import _runs_for, send_runs


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


def _blocked_store_cycle(tick, l3: bool, traced: bool, lower_line: int = 64):
    """One cycle of a store storm behind L2 (+L3) with the DRAM queue full,
    in which core 1's read hit has already taken L2 bank 0's only port.

    Core 0 then presents five store lanes in three D$ runs.  With 64-byte
    L2/L3 lines: two on L2 bank 0 (another line), two on bank 1, one on
    bank 2.  With 128-byte ones, two D$ lines each: two on bank 2, two on
    the taken line itself (its one port used), one on bank 1.  Returns the
    subsystem and its events.
    """
    config = VortexConfig(
        num_cores=2,
        enable_l2=True,
        enable_l3=l3,
        l2cache=CacheConfig(size=128 * 1024, line_size=lower_line, num_banks=4),
        l3cache=CacheConfig(size=1024 * 1024, line_size=lower_line, num_banks=8),
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
    stores = [((0x200 * 64,), 0x200, 0, False), ((0x202 * 64,), 0x202, 2, False)]
    assert send_runs(dcache0, stores, 4, True, None)[0] == 2  # fills the DRAM queue
    tick(memsys)
    assert not memsys.dram.can_accept
    assert dcache1.send(0x100 * 64, tag="hit-in-l2")  # accepted although DRAM is full
    storm = [
        ((0x104 * 64, 0x104 * 64 + 4), 0x104, 0, False),
        ((0x101 * 64, 0x101 * 64 + 4), 0x101, 1, False),
        ((0x102 * 64,), 0x102, 2, False),
    ]
    assert send_runs(dcache0, storm, 8, True, None) == (0, storm, 8)
    bus.flush()
    return memsys, sink.events


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize(
    "l3,lower_line", [(False, 64), (True, 64), (True, 128)], ids=["l2", "l2-l3", "l2-l3-128"]
)
def test_blocked_writes_are_charged_at_every_level_as_send_would(
    l3, lower_line, traced, monkeypatch, tick
):
    """The lanes a write-blocked lower port is never asked for are charged
    where a lane-by-lane walk refuses them: an L2 bank another request took
    this cycle charges ``bank_conflicts`` there and goes no further, the rest
    charge ``memq_stalls`` level by level down to DRAM's ``rejected``, for
    lower lines of one or two D$ lines."""
    memsys, events = _blocked_store_cycle(tick, l3, traced, lower_line)
    before = {name: dict(counters) for name, counters in memsys.counters().items()}
    l2 = memsys.l2[0].perf
    assert l2.get("bank_conflicts") == 2 and l2.get("memq_stalls") == 3
    assert memsys.dcache(0).perf.get("memq_stalls") == 5
    assert memsys.dram.perf.get("rejected") == 3
    if l3:
        assert memsys.l3.perf.get("memq_stalls") == 3 and "bank_conflicts" not in memsys.l3.perf

    forward_lane_by_lane(monkeypatch)
    twin, twin_events = _blocked_store_cycle(tick, l3, traced, lower_line)
    assert twin.counters() == before
    assert twin_events == events
    if traced:
        kinds = [(e.channel, e.kind) for e in events if e.payload.get("write")]
        # Per lane the deepest level speaks first, as in a chain of ``send`` calls.
        refused = [("l3", "refusal")] * l3 + [("l2", "refusal"), ("dcache", "refusal")]
        assert kinds[-len(refused):] == refused
        assert ("l2", "conflict") in kinds


def _refused_store_cycle(geometry, l3, taken, stores, traced, lane_by_lane):
    """``_blocked_store_cycle`` drawn at random: L2/L3 line size, banks and
    ports from ``geometry``, core 1's reads of the warm ``taken`` addresses
    holding L2 ports, then core 0's ``stores`` (as D$ runs) against the full
    DRAM queue.  Every level's counters and (``traced``) its events."""
    line_size, num_banks, num_ports = geometry
    lower = {"line_size": line_size, "num_banks": num_banks, "num_ports": num_ports}
    config = VortexConfig(
        num_cores=2,
        enable_l2=True,
        enable_l3=l3,
        l2cache=CacheConfig(size=64 * 1024, **lower),
        l3cache=CacheConfig(size=256 * 1024, **lower),
        memory=MemoryConfig(latency=20, bandwidth=1, request_queue_size=2),
    )
    memsys = MemorySubsystem(config)
    sink = MemorySink()
    bus = TraceBus([sink])
    memsys.attach_trace(bus if traced else None)
    dcache0, dcache1 = memsys.dcache(0), memsys.dcache(1)

    def tick():
        memsys.clock.now += 1
        memsys.tick()
        for cache in memsys.icaches + memsys.dcaches:  # as each core ticks its own
            cache.tick()

    for address in taken:  # warm in L2 through core 0
        tick()
        dcache0.send(address, tag="warm")
        while memsys.busy:
            tick()
    num_banks = dcache0.config.num_banks
    for address in (0x8000 * 64, 0x8001 * 64):  # one store a cycle fills the DRAM queue
        tick()
        assert send_runs(dcache0, _runs_for([address], (), 64, num_banks), 1, True, None)[0]
    tick()
    assert not memsys.dram.can_accept
    for address in taken:
        dcache1.send(address, tag="hit-in-l2")
    runs = _runs_for(stores, (), 64, num_banks)
    with ExitStack() as stack:
        if lane_by_lane:  # forward_lane_by_lane, for one call
            for port in (_DramPort, _CachePort):
                stack.enter_context(mock.patch.object(port, "blocked", LowerPort.blocked))
        assert send_runs(dcache0, runs, len(stores), True, None)[0] == 0
    bus.flush()
    return memsys.counters(), sink.events


_lane_addresses = st.integers(0, 31).map(lambda word: 0x4000 + word * 8)


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.tuples(
        st.sampled_from([64, 128, 256]), st.sampled_from([1, 2, 4]), st.sampled_from([1, 2])
    ),
    l3=st.booleans(),
    taken=st.lists(_lane_addresses, max_size=4),
    stores=st.lists(_lane_addresses, min_size=1, max_size=16),
    traced=st.booleans(),
)
def test_refused_writes_follow_the_lane_by_lane_walk(geometry, l3, taken, stores, traced):
    """Property: ``LowerPort.refuse_writes`` charges and traces, at every level,
    what the lane-by-lane walk of ``send`` calls does — for lower lines of
    one to four 64-byte D$ lines, any bank and port count, and L2 ports
    taken by same- or other-line reads."""
    bulk = _refused_store_cycle(geometry, l3, taken, stores, traced, False)
    walk = _refused_store_cycle(geometry, l3, taken, stores, traced, True)
    assert bulk == walk


# -- a store pass that finds room walks only until the lower blocks again --------------------


def _tallies_of(runs):
    """Lanes per bank and per line of D$ runs, as the timing core keeps them."""
    bank_lanes, line_lanes = [0] * 4, {}
    for addresses, line, bank, _ in runs:
        bank_lanes[bank] += len(addresses)
        line_lanes[line] = line_lanes.get(line, 0) + len(addresses)
    return bank_lanes, line_lanes


def _store_pass(geometry, l2, queued, taken, stores, budget, traced, lane_by_lane):
    """One store pass over ``stores`` (as D$ runs, with their tallies) after
    reads of the warm ``taken`` addresses took D$ ports, against a DRAM queue
    of ``geometry``'s size already holding ``queued`` requests.  Every level's
    counters, the group and tallies it leaves, and (``traced``) its events."""
    queue_size, num_ports = geometry
    config = VortexConfig(
        enable_l2=l2,
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=num_ports),
        memory=MemoryConfig(latency=20, bandwidth=1, request_queue_size=queue_size),
    )
    memsys = MemorySubsystem(config)
    dcache = memsys.dcache(0)
    for address in taken:
        dcache.fill(address // 64)
    memsys.clock.now += 1
    for _ in range(min(queued, queue_size)):
        memsys.dram.send(MemRequest(address=0, is_write=True))
    sink = MemorySink()
    bus = TraceBus([sink])
    memsys.attach_trace(bus if traced else None)
    for address in taken:
        dcache.send(address, tag="hit")
    group = RequestGroup(_runs_for(stores, (), 64, 4))
    tallies = _tallies_of(group.to_send)
    with ExitStack() as stack:
        if lane_by_lane:  # forward_lane_by_lane, for one call
            for port in (_DramPort, _CachePort):
                stack.enter_context(mock.patch.object(port, "blocked", LowerPort.blocked))
        left = dcache.send_batch((group,), budget, True, tallies)
    assert tallies == _tallies_of(group.to_send)  # kept by subtraction
    bus.flush()
    return memsys.counters(), group.to_send, group.outstanding, left, sink.events


_store_addresses = st.integers(0, 63).map(lambda word: 0x4000 + word * 8)  # 8 lines, 4 banks


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.tuples(st.integers(1, 4), st.sampled_from([1, 2])),
    l2=st.booleans(),
    queued=st.integers(0, 4),
    taken=st.lists(_store_addresses, max_size=3),
    stores=st.lists(_store_addresses, min_size=1, max_size=24),
    budget=st.integers(1, 32),
    traced=st.booleans(),
)
def test_store_pass_stops_where_the_lower_blocks(
    geometry, l2, queued, taken, stores, budget, traced
):
    """Property: a store pass with the queue's tallies walks until the lower
    blocks again and charges the runs it did not walk from the tallies less
    the walked runs still queued — what the lane-by-lane walk of ``send``
    calls charges, traces and leaves queued, behind DRAM or an L2, with
    DRAM queues of one to four entries, room or none, and ports taken."""
    bulk = _store_pass(geometry, l2, queued, taken, stores, budget, traced, False)
    walk = _store_pass(geometry, l2, queued, taken, stores, budget, traced, True)
    assert bulk == walk
