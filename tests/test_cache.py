"""Tests for the non-blocking multi-banked cache subsystem."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.bank import CacheBank
from repro.cache.cache import LowerPort, NonBlockingCache
from repro.cache.hierarchy import MemorySubsystem
from repro.cache.mshr import Mshr
from repro.cache.sharedmem import SharedMemory, is_shared_address, shared_mem_window
from repro.common.config import CacheConfig, VortexConfig
from repro.core.emulator import EmulationError


# -- MSHR --------------------------------------------------------------------------------


def test_mshr_allocate_and_merge():
    mshr = Mshr(capacity=2)
    entry = mshr.allocate(0x10, "a")
    assert entry is not None and not entry.fill_issued
    merged = mshr.allocate(0x10, "b")
    assert merged is entry
    assert mshr.merged == 1
    assert mshr.release(0x10) == ["a", "b"]
    assert len(mshr) == 0


def test_mshr_capacity_and_early_full():
    mshr = Mshr(capacity=2)
    assert not mshr.almost_full
    mshr.allocate(1, "a")
    assert mshr.almost_full
    mshr.allocate(2, "b")
    assert mshr.full
    assert mshr.allocate(3, "c") is None


def test_mshr_release_unknown_line_is_empty():
    assert Mshr(4).release(0x99) == []


def test_mshr_capacity_one_is_not_permanently_almost_full():
    """Regression: ``capacity - 1 == 0`` made an *empty* capacity-1 table
    signal almost-full, so every read was refused forever."""
    mshr = Mshr(capacity=1)
    assert not mshr.almost_full
    assert mshr.allocate(0x10, "a") is not None
    assert mshr.almost_full and mshr.full
    assert mshr.release(0x10) == ["a"]
    assert not mshr.almost_full


def test_cache_with_capacity_one_mshr_still_serves_reads(tick):
    """End-to-end: a single-entry MSHR must accept a read miss, fill it and
    respond (the timing driver's watchdog used to fire here)."""
    cache, lower = _make_cache(mshr_size=1, num_banks=1)
    assert cache.send(0x80, tag="r")
    assert lower.fills == [cache.line_address(0x80)]
    responses = tick(cache, fills=[cache.line_address(0x80)])
    for _ in range(3):
        responses.extend(tick(cache))
    assert [resp.tag for resp in responses] == ["r"]


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=6),
    events=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=7)),
        max_size=60,
    ),
)
def test_mshr_merge_replay_invariants(capacity, events):
    """Property: every allocated request replays exactly once, merges are
    counted exactly, and occupancy never exceeds the capacity."""
    mshr = Mshr(capacity)
    accepted = {}  # line -> list of outstanding (unreleased) request ids
    released = []
    merged = 0
    allocations = 0
    next_id = 0
    for is_release, line in events:
        if is_release:
            expected = accepted.pop(line, [])
            replayed = mshr.release(line)
            assert replayed == expected
            released.extend(replayed)
        else:
            request = next_id
            entry = mshr.allocate(line, request)
            if entry is None:
                # Refused: table full and the line has no entry to merge into.
                assert len(mshr) == capacity
                assert line not in accepted
                continue
            next_id += 1
            if len(entry.waiting) > 1:
                merged += 1
            else:
                allocations += 1
            accepted.setdefault(line, []).append(request)
        assert len(mshr) <= capacity
        assert mshr.peak_occupancy <= capacity
        assert len(mshr) == len(accepted)
        # The early-full signal is a maintained attribute (hot request paths
        # read it per attempt); it must track occupancy exactly.
        assert mshr.almost_full == (len(mshr) >= max(capacity - 1, 1))
    assert mshr.merged == merged
    assert mshr.allocations == allocations
    # Drain everything: each accepted request is replayed exactly once.
    for line in list(accepted):
        released.extend(mshr.release(line))
    assert sorted(released) == list(range(next_id))


# -- CacheBank ---------------------------------------------------------------------------


def test_bank_install_probe_and_lru_eviction():
    config = CacheConfig(size=1024, line_size=64, num_banks=1, num_ways=2)
    bank = CacheBank(0, config)
    lines = [0, config.num_sets, 2 * config.num_sets]  # all map to set 0
    assert not bank.probe(lines[0])
    bank.install(lines[0])
    bank.install(lines[1])
    bank.touch(lines[0])  # make line 0 most recently used
    evicted = bank.install(lines[2])
    assert evicted == lines[1]
    assert bank.probe(lines[0]) and bank.probe(lines[2]) and not bank.probe(lines[1])


@pytest.mark.parametrize("hit_latency", [0, 1, 3])
def test_cache_response_scheduling_honors_hit_latency(hit_latency, tick):
    """A hit accepted at cycle C answers at ``C + hit_latency`` — and never
    before the next tick, so ``hit_latency=0`` behaves like 1."""
    config = CacheConfig(size=1024, line_size=64, num_banks=1, hit_latency=hit_latency)
    cache = NonBlockingCache("dcache", config)
    cache.fill(0)
    for _ in range(10):
        tick(cache)
    assert cache.send(0, tag="t")
    due = 10 + max(hit_latency, 1)
    assert cache.next_response_cycle() == due
    for cycle in range(11, due):
        assert tick(cache) == [], cycle
    (response,) = tick(cache)
    assert (response.tag, response.addresses, response.hit) == ("t", (0,), True)
    assert response.cycle == due and response.accept_cycle == 10
    assert cache.next_response_cycle() is None and not cache.busy


def test_cache_config_rejects_negative_hit_latency():
    with pytest.raises(ValueError, match="hit latency"):
        CacheConfig(hit_latency=-1)


# -- NonBlockingCache ----------------------------------------------------------------------


class _AlwaysReadyLower:
    """Lower level that accepts everything and records fills."""

    def __init__(self):
        self.fills = []
        self.writes = []

    def request_fill(self, cache, line_address):
        self.fills.append(line_address)
        return True

    def request_write(self, cache, address):
        self.writes.append(address)
        return True


def _make_cache(num_ports=1, num_banks=4, mshr_size=4):
    config = CacheConfig(
        size=4 * 1024, line_size=64, num_banks=num_banks, num_ports=num_ports,
        mshr_size=mshr_size, hit_latency=2,
    )
    lower = _AlwaysReadyLower()
    return NonBlockingCache("dcache", config, lower=lower), lower


def test_read_miss_then_fill_then_hit(tick):
    cache, lower = _make_cache()
    assert cache.send(0x100, tag="r0")
    assert lower.fills == [cache.line_address(0x100)]
    # No response until the fill returns.
    for _ in range(5):
        assert tick(cache) == []
    responses = tick(cache, fills=[cache.line_address(0x100)])
    for _ in range(2):
        responses.extend(tick(cache))
    assert [resp.tag for resp in responses] == ["r0"]
    # Second access to the same line hits.
    assert cache.send(0x104, tag="r1")
    responses = []
    for _ in range(3):
        responses.extend(tick(cache))
    assert responses and responses[0].hit
    assert cache.hit_rate > 0


def test_miss_to_same_line_merges_in_mshr(tick):
    cache, lower = _make_cache()
    assert cache.send(0x200, tag="a")
    tick(cache)
    assert cache.send(0x204, tag="b")
    assert len(lower.fills) == 1  # second miss merged
    tags = [resp.tag for resp in tick(cache, fills=[cache.line_address(0x200)])]
    for _ in range(3):
        tags.extend(resp.tag for resp in tick(cache))
    assert set(tags) == {"a", "b"}


def test_bank_conflict_with_single_port():
    cache, _ = _make_cache(num_ports=1)
    line = 64 * cache.config.num_banks  # two addresses on different lines, same bank
    assert cache.send(0, tag="a")
    assert not cache.send(line, tag="b")
    assert cache.perf.get("bank_conflicts") == 1
    assert cache.bank_utilization < 1.0


def test_virtual_ports_coalesce_same_line_only():
    cache, _ = _make_cache(num_ports=2)
    # Same line: both accepted in one cycle.
    assert cache.send(0x0, tag="a")
    assert cache.send(0x4, tag="b")
    # Third same-line request exceeds the two virtual ports.
    assert not cache.send(0x8, tag="c")
    # Different line in the same bank still conflicts.
    other_line = 64 * cache.config.num_banks
    assert not cache.send(other_line, tag="d")


def test_requests_to_distinct_banks_proceed_in_parallel():
    cache, _ = _make_cache(num_ports=1, num_banks=4)
    for bank in range(4):
        assert cache.send(bank * 64, tag=bank)
    assert cache.perf.get("bank_conflicts") == 0
    assert cache.bank_utilization == 1.0


def test_write_through_forwards_to_lower_level(tick):
    cache, lower = _make_cache()
    assert cache.send(0x40, is_write=True, tag="w")
    assert lower.writes == [0x40]
    responses = []
    for _ in range(3):
        responses.extend(tick(cache))
    assert [resp.tag for resp in responses] == ["w"]


def test_mshr_early_full_backpressures_reads(tick):
    cache, _ = _make_cache(mshr_size=2, num_banks=1)
    assert cache.send(0 * 64, tag=0)
    tick(cache)
    # The MSHR is now almost full (capacity 2, one used): next miss refused.
    assert not cache.send(1 * 64, tag=1)
    assert cache.perf.get("mshr_stalls") >= 1


class _RejectingLower:
    def request_fill(self, cache, line_address):
        return False

    def request_write(self, cache, address):
        return False


def test_lower_level_backpressure_rejects_request():
    config = CacheConfig(size=4 * 1024, num_banks=4)
    cache = NonBlockingCache("dcache", config, lower=_RejectingLower())
    assert not cache.send(0x300, tag="x")
    assert cache.perf.get("memq_stalls") == 1


def test_busy_reflects_outstanding_work():
    cache, _ = _make_cache()
    assert not cache.busy
    cache.send(0x500, tag="x")
    assert cache.busy


# -- SharedMemory ----------------------------------------------------------------------------


def test_shared_memory_window_and_membership():
    base, limit = shared_mem_window(core_id=1)
    assert is_shared_address(base)
    assert not is_shared_address(0x1000_0000)
    assert limit - base == 0x1_0000


def test_shared_memory_bank_conflicts_serialize(tick):
    smem = SharedMemory(core_id=0, size=8 * 1024, num_banks=4, latency=1)
    base = smem.base
    assert smem.send(base + 0, False, "a")
    assert smem.send(base + 4, False, "b")  # different bank
    assert not smem.send(base + 16, False, "c")  # bank 0 again -> conflict
    done = tick(smem)
    assert {resp.tag for resp in done} == {"a", "b"}
    assert smem.perf.get("bank_conflicts") == 1


# -- batched request path: bit-identical to the per-lane loop ------------------------------


class _ScriptedLower(LowerPort):
    """Lower level refusing every ``refuse_every``-th request (non-sticky:
    never ``blocked``, ``LowerPort``'s default).

    Deterministic, so two caches driven with identical request sequences see
    identical accept/refuse patterns — the property the batched/per-lane
    equivalence tests rely on.
    """

    def __init__(self, refuse_every=3):
        self.refuse_every = refuse_every
        self.calls = 0
        self.fills = []
        self.writes = []

    def _accept(self):
        self.calls += 1
        return self.refuse_every == 0 or self.calls % self.refuse_every != 0

    def request_fill(self, cache, line_address):
        if not self._accept():
            return False
        self.fills.append(line_address)
        return True

    def request_write(self, cache, address):
        if not self._accept():
            return False
        self.writes.append(address)
        return True


class _StickyQueueLower:
    """Bounded shared queue: refuses once full, for the rest of the cycle.

    Mirrors the DRAM port contract: ``blocked`` promises that every further
    request this cycle is refused (and says so before the first one is
    asked), and ``note_skipped_refusal`` / ``note_blocked_writes`` charge
    exactly what the skipped calls would have (here: the ``rejected`` tally).
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.queue = []
        self.rejected = 0

    def _accept(self, item):
        if len(self.queue) >= self.capacity:
            self.rejected += 1
            return False
        self.queue.append(item)
        return True

    def request_fill(self, cache, line_address):
        return self._accept(("fill", line_address))

    def request_write(self, cache, address):
        return self._accept(("write", address))

    def note_skipped_refusal(self, count=1):
        self.rejected += count

    def blocked(self, is_write):
        return len(self.queue) >= self.capacity

    def note_blocked_writes(self, runs):
        self.rejected += sum(len(addresses) for addresses in runs)

    def drain(self):
        released, self.queue = self.queue, []
        return released


class _RecordingTrace:
    """Stands in for the trace bus: keeps every per-attempt event."""

    def __init__(self):
        self.events = []

    def emit(self, cycle, core, warp, channel, kind, payload=None):
        self.events.append((cycle, kind, dict(payload or {})))


def _perlane_reference(cache, entries, budget, is_write, tag):
    """One lane-by-lane pass over ``send`` — the oracle for ``send_batch``."""
    refused = []
    accepted = 0
    for entry in entries:
        if budget <= 0:
            refused.append(entry)
            continue
        if cache.send(entry[0], is_write, tag):
            accepted += 1
            budget -= 1
        else:
            refused.append(entry)
    return accepted, refused, budget


def _entries_for(cache, addresses):
    """Per-lane entries for the ``send`` oracle."""
    line_size = cache.config.line_size
    num_banks = cache.config.num_banks
    return [
        (address, address // line_size, (address // line_size) % num_banks, False)
        for address in addresses
    ]


def _runs_for(addresses, split=(), line_size=64, num_banks=4, to_smem=False):
    """Partition a lane list into same-line runs, the shape ``send_batch`` takes.

    A cut always falls where the line changes; ``split[i]`` additionally
    cuts before lane ``i``.  No ``split`` gives the maximal partition (what
    ``TimingCore._request_entries`` builds), all-true gives one run per lane.
    """
    runs = []
    for index, address in enumerate(addresses):
        line = address // line_size
        if runs and runs[-1][1] == line and not (index < len(split) and split[index]):
            runs[-1][0].append(address)
        else:
            runs.append(([address], line, line % num_banks, to_smem))
    return [(tuple(lanes), line, bank, dest) for lanes, line, bank, dest in runs]


def _cache_runs(cache, addresses, split=()):
    return _runs_for(addresses, split, cache.config.line_size, cache.config.num_banks)


def _lanes(runs, line_size=64):
    """Flatten runs back to lane addresses, checking each run is well-formed."""
    for run in runs:
        assert run[0], "empty run"
        assert {address // line_size for address in run[0]} == {run[1]}
    return [address for run in runs for address in run[0]]


def _cache_state(cache):
    """Everything observable, down to LRU values and the per-lane snapshot
    wire — how lanes were grouped into records must not show anywhere."""
    return {
        "accepts": dict(cache._accepts_this_cycle),
        "mshr_len": [len(bank.mshr) for bank in cache.banks],
        "mshr_lines": [sorted(bank.mshr._entries) for bank in cache.banks],
        "mshr_almost_full": [bank.mshr.almost_full for bank in cache.banks],
        "mshr_tallies": [
            (bank.mshr.merged, bank.mshr.allocations, bank.mshr.peak_occupancy)
            for bank in cache.banks
        ],
        "lru": [(bank._use_counter, bank._tags) for bank in cache.banks],
        "counters": cache.perf.as_dict(),
        "wire": cache.snapshot(lambda tag: tag)["banks"],
    }


def _drain_responses(tick, cache, cycles=6, fills=()):
    """The response stream per lane, so the per-lane ``send`` oracle decides.
    ``fills`` come back from the lower level in the first cycle."""
    stream = []
    for _ in range(cycles):
        for resp in tick(cache, fills):
            for address in resp.addresses:
                stream.append((resp.tag, address, resp.is_write, resp.hit, resp.cycle))
        fills = ()
    return stream


def _settle(tick, cache, lower):
    """Between two cycles: the lower level answers, then one cycle passes.

    A scripted lower completes its latest fill; the shared queue drains
    (its refusals are only sticky within one cycle) and its fills flow back.
    """
    if isinstance(lower, _StickyQueueLower):
        fills = [payload for kind, payload in lower.drain() if kind == "fill"]
    else:
        fills = lower.fills[-1:]
    return _drain_responses(tick, cache, 1, fills)


_cache_rounds = st.lists(
    st.tuples(
        st.booleans(),  # is_write
        st.integers(min_value=0, max_value=40),  # budget
        st.lists(  # lane addresses, drawn from a small line pool
            st.integers(min_value=0, max_value=15).map(lambda line: line * 64),
            max_size=36,
        ),
        st.lists(st.booleans(), max_size=36),  # extra cuts inside same-line stretches
    ),
    min_size=1,
    max_size=5,
)


def _check_batch_matches_perlane(tick, config, ref_lower, bat_lower, rounds):
    """Drive ``send`` lane by lane and ``send_batch`` run by run with the
    same rounds; everything observable must agree after every cycle."""
    reference = NonBlockingCache("ref", config, lower=ref_lower)
    batched = NonBlockingCache("bat", config, lower=bat_lower)
    reference.trace, batched.trace = _RecordingTrace(), _RecordingTrace()
    for is_write, budget, addresses, split in rounds:
        entries = _entries_for(reference, addresses)
        ref_accepted, ref_refused, ref_budget = _perlane_reference(
            reference, entries, budget, is_write, "t"
        )
        accepted, refused, left = batched.send_batch(
            _cache_runs(batched, addresses, split), budget, is_write, "t"
        )
        assert (accepted, _lanes(refused), left) == (
            ref_accepted, [entry[0] for entry in ref_refused], ref_budget
        )
        assert _cache_state(reference) == _cache_state(batched)
        assert vars(ref_lower) == vars(bat_lower)
        assert reference.trace.events == batched.trace.events  # one event per lane
        assert _settle(tick, reference, ref_lower) == _settle(tick, batched, bat_lower)
    # Drain everything still in flight: the response streams must agree.
    fills = getattr(ref_lower, "fills", ())
    assert _drain_responses(tick, reference, fills=fills) == _drain_responses(
        tick, batched, fills=fills
    )
    assert _cache_state(reference) == _cache_state(batched)


@settings(max_examples=60, deadline=None)
@given(
    num_banks=st.sampled_from([1, 2, 4]),
    num_ports=st.sampled_from([1, 2]),
    mshr_size=st.sampled_from([1, 2, 4]),
    refuse_every=st.sampled_from([0, 2, 3]),
    rounds=_cache_rounds,
)
def test_send_batch_matches_perlane_property(
    tick, num_banks, num_ports, mshr_size, refuse_every, rounds
):
    """Property: the batched per-run path and the per-lane loop produce
    identical accept counts, refusal order, MSHR occupancy, counters,
    response streams and lower-level traffic on random request rounds —
    against a non-sticky lower, whose own call count advances per lane."""
    config = CacheConfig(
        size=4 * 1024, line_size=64, num_banks=num_banks, num_ports=num_ports,
        mshr_size=mshr_size, hit_latency=2,
    )
    _check_batch_matches_perlane(
        tick, config, _ScriptedLower(refuse_every), _ScriptedLower(refuse_every), rounds
    )


@settings(max_examples=60, deadline=None)
@given(
    num_banks=st.sampled_from([1, 2, 4]),
    capacity=st.sampled_from([1, 2, 5]),
    rounds=_cache_rounds,
)
def test_send_batch_sticky_lower_matches_perlane_property(tick, num_banks, capacity, rounds):
    """Property: against a sticky (shared-queue) lower level, the batched
    path's skipped-refusal accounting matches the per-lane loop's real
    refused calls — including whole runs charged behind one refused call."""
    config = CacheConfig(
        size=4 * 1024, line_size=64, num_banks=num_banks, num_ports=1,
        mshr_size=4, hit_latency=2,
    )
    _check_batch_matches_perlane(
        tick, config, _StickyQueueLower(capacity), _StickyQueueLower(capacity), rounds
    )


@settings(max_examples=60, deadline=None)
@given(
    num_banks=st.sampled_from([1, 2, 4]),
    num_ports=st.sampled_from([1, 2, 4]),
    mshr_size=st.sampled_from([1, 2, 4]),
    make_lower=st.sampled_from(
        [
            lambda: _ScriptedLower(0),
            lambda: _ScriptedLower(2),
            lambda: _ScriptedLower(3),
            lambda: _StickyQueueLower(1),
            lambda: _StickyQueueLower(3),
        ]
    ),
    rounds=_cache_rounds,
)
def test_send_batch_partition_invariance_property(
    tick, num_banks, num_ports, mshr_size, make_lower, rounds
):
    """Property: how the lane list is cut into same-line runs is not
    observable.  The maximal partition, one run per lane and a random
    partition give identical ``(accepted, flattened refused, budget)``,
    cache state, lower traffic and response streams — which is why a
    checkpoint may regroup lanes and partly refused runs may sit next to a
    run of the same line."""
    config = CacheConfig(
        size=4 * 1024, line_size=64, num_banks=num_banks, num_ports=num_ports,
        mshr_size=mshr_size, hit_latency=2,
    )
    lowers = [make_lower() for _ in range(3)]
    caches = [NonBlockingCache(f"c{i}", config, lower=lower) for i, lower in enumerate(lowers)]
    for cache in caches:
        cache.trace = _RecordingTrace()

    def agree(observe):
        first, *rest = [observe(cache, lower) for cache, lower in zip(caches, lowers)]
        assert all(other == first for other in rest)

    for is_write, budget, addresses, split in rounds:
        partitions = [(), [True] * len(addresses), split]
        outcomes = []
        for cache, cuts in zip(caches, partitions):
            accepted, refused, left = cache.send_batch(
                _cache_runs(cache, addresses, cuts), budget, is_write, "t"
            )
            outcomes.append((accepted, _lanes(refused), left))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        agree(lambda cache, lower: (_cache_state(cache), vars(lower), cache.trace.events))
        agree(lambda cache, lower: _settle(tick, cache, lower))
    agree(lambda cache, lower: (_drain_responses(tick, cache), _cache_state(cache)))


# -- the accept half travels per run: directed cases behind the properties ---------------


def _accepting_lower():
    return _ScriptedLower(refuse_every=0)


def _against_perlane(addresses, budget, is_write, make_lower, **config):
    """One ``send_batch`` of one maximal partition next to the ``send`` oracle."""
    config = CacheConfig(size=4 * 1024, line_size=64, hit_latency=2, **config)
    reference = NonBlockingCache("ref", config, lower=make_lower())
    batched = NonBlockingCache("bat", config, lower=make_lower())
    expected = _perlane_reference(
        reference, _entries_for(reference, addresses), budget, is_write, "t"
    )
    accepted, refused, left = batched.send_batch(
        _cache_runs(batched, addresses), budget, is_write, "t"
    )
    assert (accepted, _lanes(refused), left) == (
        expected[0], [entry[0] for entry in expected[1]], expected[2]
    )
    assert _cache_state(reference) == _cache_state(batched)
    return batched, refused


def _due_records(cache):
    return [record for ready in sorted(cache._due) for _bank, record in cache._due[ready]]


@pytest.mark.parametrize("mshr_size", [1, 2])
def test_allocating_lane_raises_almost_full_for_the_rest_of_its_run(mshr_size):
    """The lane that allocates the MSHR entry goes alone: with a one- or
    two-entry table it raises ``almost_full``, so lanes 2..n of the same run
    are early-full stalls — not merges — exactly as lane by lane."""
    addresses = [0x100, 0x104, 0x108, 0x10C]
    cache, refused = _against_perlane(
        addresses, 32, False, _accepting_lower, num_banks=1, num_ports=8, mshr_size=mshr_size
    )
    assert cache.perf.get("accepted") == 1 and cache.perf.get("mshr_stalls") == 3
    assert _lanes(refused) == addresses[1:]
    (entry,) = cache.banks[0].mshr._entries.values()
    assert [record.addresses for record in entry.waiting] == [(0x100,)]
    assert cache.banks[0].mshr.merged == 0


def test_merging_lanes_share_one_record_behind_the_allocating_lane():
    cache, refused = _against_perlane(
        [0x100, 0x104, 0x108, 0x10C], 32, False, _accepting_lower,
        num_banks=1, num_ports=8, mshr_size=4,
    )
    assert not refused and cache.lower.fills == [4]
    (entry,) = cache.banks[0].mshr._entries.values()
    assert [record.addresses for record in entry.waiting] == [(0x100,), (0x104, 0x108, 0x10C)]
    assert cache.banks[0].mshr.merged == 3 and cache.banks[0].mshr.allocations == 1


def test_write_run_keeps_going_past_a_nonsticky_refusal():
    """A non-sticky lower refuses lane 2 of 4: lanes 1, 3, 4 are accepted
    into one record, lane 2 comes back, and the lower saw four calls."""

    def make_lower():
        lower = _ScriptedLower(refuse_every=4)
        lower.calls = 2  # the run's second call is the refused fourth
        return lower

    addresses = [0x200, 0x204, 0x208, 0x20C]
    cache, refused = _against_perlane(
        addresses, 32, True, make_lower, num_banks=2, num_ports=4, mshr_size=4
    )
    assert refused == [((0x204,), 8, 0, False)]
    assert cache.lower.calls == 6 and cache.lower.writes == [0x200, 0x208, 0x20C]
    assert cache.perf.get("memq_stalls") == 1
    (record,) = _due_records(cache)
    assert record.addresses == (0x200, 0x208, 0x20C) and record.is_write and not record.hit


@pytest.mark.parametrize("num_ports", [2, 4, 8])
def test_run_longer_than_the_ports_accepts_a_prefix(num_ports):
    addresses = [0x300 + 4 * lane for lane in range(12)]
    cache, refused = _against_perlane(
        addresses, 32, False, _accepting_lower, num_banks=4, num_ports=num_ports, mshr_size=8
    )
    assert cache.perf.get("accepted") == num_ports
    assert cache.perf.get("bank_conflicts") == 12 - num_ports
    assert _lanes(refused) == addresses[num_ports:]


def test_accepted_hit_run_is_one_due_entry(tick):
    """Eight same-line hit lanes on an 8-port bank: one ``touch``, one
    record, one ``_due`` entry — counted from here, no counter exists."""
    config = CacheConfig(size=4 * 1024, line_size=64, num_banks=4, num_ports=8)
    cache = NonBlockingCache("dcache", config)
    cache.fill(cache.line_address(0x400))
    tick(cache)
    scheduled = []
    schedule = cache._schedule
    cache._schedule = lambda bank_id, record: (scheduled.append(record), schedule(bank_id, record))
    addresses = tuple(0x400 + 4 * lane for lane in range(8))
    use_counter = cache.banks[0]._use_counter
    accepted, refused, budget = cache.send_batch(_cache_runs(cache, addresses), 32, False, "t")
    assert (accepted, refused, budget) == (8, [], 24)
    assert len(scheduled) == 1 and scheduled[0].addresses == addresses
    assert [len(bucket) for bucket in cache._due.values()] == [1]
    assert cache.banks[0]._use_counter == use_counter + 8  # as eight touches would
    assert len(cache.snapshot(lambda tag: tag)["banks"][0]["pending"]) == 8  # wire: per lane
    tick(cache)
    assert tick(cache) == scheduled and scheduled[0].cycle == cache.clock.now


def test_skip_idle_past_a_due_response_fails_loudly(tick):
    """``tick`` pops exactly the current cycle's bucket, so a jump over a due
    response would strand it; ``MemorySubsystem.skip_idle`` — the one check
    behind every jump — raises on the offending one and names the level."""
    memsys = MemorySubsystem(VortexConfig(dcache=CacheConfig(hit_latency=2)))
    cache = memsys.dcache(0)
    cache.fill(cache.line_address(0x500))
    tick(memsys)
    assert cache.send(0x500, tag="t")  # due two cycles ahead
    memsys.clock.now += 1
    memsys.skip_idle(1)
    memsys.clock.now += 1
    with pytest.raises(EmulationError, match="dcache0: .* passed a response due at cycle 3"):
        memsys.skip_idle(1)


@settings(max_examples=60, deadline=None)
@given(
    num_banks=st.sampled_from([1, 2, 4]),
    rounds=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=20),
            st.lists(st.integers(min_value=0, max_value=63).map(lambda w: w * 4), max_size=24),
            st.lists(st.booleans(), max_size=24),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_smem_send_batch_matches_perlane_property(tick, num_banks, rounds):
    """Property: the scratchpad's batched path matches per-lane ``send`` —
    its banks are word-interleaved, so the lanes of one run spread over them."""
    ref = SharedMemory(core_id=0, size=8 * 1024, num_banks=num_banks, latency=1)
    bat = SharedMemory(core_id=0, size=8 * 1024, num_banks=num_banks, latency=1)
    for is_write, budget, offsets, split in rounds:
        addresses = [ref.base + off for off in offsets]
        refused = []
        accepted = 0
        remaining = budget
        for address in addresses:
            if remaining <= 0:
                refused.append(address)
                continue
            if ref.send(address, is_write, "t"):
                accepted += 1
                remaining -= 1
            else:
                refused.append(address)
        bat_accepted, bat_refused, bat_budget = bat.send_batch(
            _runs_for(addresses, split, to_smem=True), budget, is_write, "t"
        )
        assert all(run[3] for run in bat_refused)
        assert (bat_accepted, _lanes(bat_refused), bat_budget) == (accepted, refused, remaining)
        assert ref.perf.as_dict() == bat.perf.as_dict()
        ref_done = [(r.address, r.is_write, r.cycle) for r in tick(ref)]
        bat_done = [(r.address, r.is_write, r.cycle) for r in tick(bat)]
        assert ref_done == bat_done
