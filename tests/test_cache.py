"""Tests for the non-blocking multi-banked cache subsystem."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.bank import CacheBank
from repro.cache.cache import NonBlockingCache
from repro.cache.mshr import Mshr
from repro.cache.sharedmem import SharedMemory, is_shared_address, shared_mem_window
from repro.common.config import CacheConfig


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


def test_cache_with_capacity_one_mshr_still_serves_reads():
    """End-to-end: a single-entry MSHR must accept a read miss, fill it and
    respond (the timing driver's watchdog used to fire here)."""
    cache, lower = _make_cache(mshr_size=1, num_banks=1)
    assert cache.send(0x80, tag="r")
    assert lower.fills == [cache.line_address(0x80)]
    cache.fill(cache.line_address(0x80))
    responses = []
    for _ in range(4):
        responses.extend(cache.tick())
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


def test_bank_response_scheduling_honors_hit_latency():
    config = CacheConfig(size=1024, line_size=64, num_banks=1, hit_latency=3)
    bank = CacheBank(0, config)
    from repro.cache.bank import BankRequest

    bank.schedule_response(BankRequest(address=0, is_write=False, tag="t"), cycle=10, hit=True)
    assert bank.collect_responses(12) == []
    responses = bank.collect_responses(13)
    assert len(responses) == 1 and responses[0][0].tag == "t"


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


def test_read_miss_then_fill_then_hit():
    cache, lower = _make_cache()
    assert cache.send(0x100, tag="r0")
    assert lower.fills == [cache.line_address(0x100)]
    # No response until the fill returns.
    for _ in range(5):
        assert cache.tick() == []
    cache.fill(cache.line_address(0x100))
    responses = []
    for _ in range(3):
        responses.extend(cache.tick())
    assert [resp.tag for resp in responses] == ["r0"]
    # Second access to the same line hits.
    assert cache.send(0x104, tag="r1")
    responses = []
    for _ in range(3):
        responses.extend(cache.tick())
    assert responses and responses[0].hit
    assert cache.hit_rate > 0


def test_miss_to_same_line_merges_in_mshr():
    cache, lower = _make_cache()
    assert cache.send(0x200, tag="a")
    cache.tick()
    assert cache.send(0x204, tag="b")
    assert len(lower.fills) == 1  # second miss merged
    cache.fill(cache.line_address(0x200))
    tags = []
    for _ in range(4):
        tags.extend(resp.tag for resp in cache.tick())
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


def test_write_through_forwards_to_lower_level():
    cache, lower = _make_cache()
    assert cache.send(0x40, is_write=True, tag="w")
    assert lower.writes == [0x40]
    responses = []
    for _ in range(3):
        responses.extend(cache.tick())
    assert [resp.tag for resp in responses] == ["w"]


def test_mshr_early_full_backpressures_reads():
    cache, _ = _make_cache(mshr_size=2, num_banks=1)
    assert cache.send(0 * 64, tag=0)
    cache.tick()
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


def test_shared_memory_bank_conflicts_serialize():
    smem = SharedMemory(core_id=0, size=8 * 1024, num_banks=4, latency=1)
    base = smem.base
    assert smem.send(base + 0, False, "a")
    assert smem.send(base + 4, False, "b")  # different bank
    assert not smem.send(base + 16, False, "c")  # bank 0 again -> conflict
    done = smem.tick()
    assert {resp.tag for resp in done} == {"a", "b"}
    assert smem.perf.get("bank_conflicts") == 1


# -- batched request path: bit-identical to the per-lane loop ------------------------------


class _ScriptedLower:
    """Lower level refusing every ``refuse_every``-th request (non-sticky).

    Deterministic, so two caches driven with identical request sequences see
    identical accept/refuse patterns — the property the batched/per-lane
    equivalence tests rely on.
    """

    sticky_refusal = False

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

    Mirrors the DRAM port contract: ``sticky_refusal`` promises that one
    refusal implies every further request this cycle is refused too, and
    ``note_skipped_refusal`` charges exactly what a real refused call would
    have (here: the ``rejected`` tally).
    """

    sticky_refusal = True

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

    def drain(self):
        released, self.queue = self.queue, []
        return released


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
    line_size = cache.config.line_size
    num_banks = cache.config.num_banks
    return [
        (address, address // line_size, (address // line_size) % num_banks, False)
        for address in addresses
    ]


def _cache_state(cache):
    return {
        "accepts": dict(cache._accepts_this_cycle),
        "mshr_len": [len(bank.mshr) for bank in cache.banks],
        "mshr_lines": [sorted(bank.mshr._entries) for bank in cache.banks],
        "mshr_almost_full": [bank.mshr.almost_full for bank in cache.banks],
        "counters": cache.perf.as_dict(),
    }


def _drain_responses(cache, cycles=6):
    stream = []
    for _ in range(cycles):
        for resp in cache.tick():
            stream.append((resp.tag, resp.address, resp.is_write, resp.hit, resp.cycle))
    return stream


_cache_rounds = st.lists(
    st.tuples(
        st.booleans(),  # is_write
        st.integers(min_value=0, max_value=40),  # budget
        st.lists(  # lane addresses, drawn from a small line pool
            st.integers(min_value=0, max_value=15).map(lambda line: line * 64),
            max_size=36,
        ),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(
    num_banks=st.sampled_from([1, 2, 4]),
    num_ports=st.sampled_from([1, 2]),
    mshr_size=st.sampled_from([1, 2, 4]),
    refuse_every=st.sampled_from([0, 2, 3]),
    rounds=_cache_rounds,
)
def test_send_batch_matches_perlane_property(
    num_banks, num_ports, mshr_size, refuse_every, rounds
):
    """Property: the batched per-bank path and the per-lane loop produce
    identical accept counts, refusal order, MSHR occupancy, counters,
    response streams and lower-level traffic on random request rounds."""
    config = CacheConfig(
        size=4 * 1024, line_size=64, num_banks=num_banks, num_ports=num_ports,
        mshr_size=mshr_size, hit_latency=2,
    )
    ref_lower, bat_lower = _ScriptedLower(refuse_every), _ScriptedLower(refuse_every)
    reference = NonBlockingCache("ref", config, lower=ref_lower)
    batched = NonBlockingCache("bat", config, lower=bat_lower)
    for is_write, budget, addresses in rounds:
        entries = _entries_for(reference, addresses)
        ref_out = _perlane_reference(reference, list(entries), budget, is_write, "t")
        bat_out = batched.send_batch(list(entries), budget, is_write, "t")
        # send_batch returns (accepted, refused, budget); the reference
        # helper returns the same triple in the same order.
        assert bat_out == ref_out
        assert _cache_state(reference) == _cache_state(batched)
        assert ref_lower.fills == bat_lower.fills
        assert ref_lower.writes == bat_lower.writes
        assert ref_lower.calls == bat_lower.calls
        # Complete one outstanding fill on both sides, then advance a cycle.
        if ref_lower.fills:
            line = ref_lower.fills[-1]
            reference.fill(line)
            batched.fill(line)
        assert _drain_responses(reference, 1) == _drain_responses(batched, 1)
    # Drain everything still in flight: the response streams must agree.
    for line in ref_lower.fills:
        reference.fill(line)
        batched.fill(line)
    assert _drain_responses(reference) == _drain_responses(batched)
    assert _cache_state(reference) == _cache_state(batched)


@settings(max_examples=60, deadline=None)
@given(
    num_banks=st.sampled_from([1, 2, 4]),
    capacity=st.sampled_from([1, 2, 5]),
    rounds=_cache_rounds,
)
def test_send_batch_sticky_lower_matches_perlane_property(num_banks, capacity, rounds):
    """Property: against a sticky (shared-queue) lower level, the batched
    path's skipped-refusal accounting matches the per-lane loop's real
    refused calls — including the bulk write-tail classification."""
    config = CacheConfig(
        size=4 * 1024, line_size=64, num_banks=num_banks, num_ports=1,
        mshr_size=4, hit_latency=2,
    )
    ref_lower, bat_lower = _StickyQueueLower(capacity), _StickyQueueLower(capacity)
    reference = NonBlockingCache("ref", config, lower=ref_lower)
    batched = NonBlockingCache("bat", config, lower=bat_lower)
    for is_write, budget, addresses in rounds:
        entries = _entries_for(reference, addresses)
        ref_out = _perlane_reference(reference, list(entries), budget, is_write, "t")
        bat_out = batched.send_batch(list(entries), budget, is_write, "t")
        assert bat_out == ref_out
        assert _cache_state(reference) == _cache_state(batched)
        assert ref_lower.queue == bat_lower.queue
        assert ref_lower.rejected == bat_lower.rejected
        # The shared queue drains between cycles (its refusals are only
        # sticky within one), and fills flow back up.
        for kind, payload in ref_lower.drain():
            if kind == "fill":
                reference.fill(payload)
        for kind, payload in bat_lower.drain():
            if kind == "fill":
                batched.fill(payload)
        assert _drain_responses(reference, 1) == _drain_responses(batched, 1)
    assert _drain_responses(reference) == _drain_responses(batched)
    assert _cache_state(reference) == _cache_state(batched)


@settings(max_examples=60, deadline=None)
@given(
    num_banks=st.sampled_from([1, 2, 4]),
    rounds=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=20),
            st.lists(st.integers(min_value=0, max_value=63).map(lambda w: w * 4), max_size=24),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_smem_send_batch_matches_perlane_property(num_banks, rounds):
    """Property: the scratchpad's batched path matches per-lane ``send``."""
    ref = SharedMemory(core_id=0, size=8 * 1024, num_banks=num_banks, latency=1)
    bat = SharedMemory(core_id=0, size=8 * 1024, num_banks=num_banks, latency=1)
    for is_write, budget, offsets in rounds:
        entries = [(ref.base + off, True) for off in offsets]
        refused = []
        accepted = 0
        remaining = budget
        for entry in entries:
            if remaining <= 0:
                refused.append(entry)
                continue
            if ref.send(entry[0], is_write, "t"):
                accepted += 1
                remaining -= 1
            else:
                refused.append(entry)
        bat_out = bat.send_batch(list(entries), budget, is_write, "t")
        assert bat_out == (accepted, refused, remaining)
        assert ref.perf.as_dict() == bat.perf.as_dict()
        ref_done = [(r.address, r.is_write, r.cycle) for r in ref.tick()]
        bat_done = [(r.address, r.is_write, r.cycle) for r in bat.tick()]
        assert ref_done == bat_done
