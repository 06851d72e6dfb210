"""Invariants of the event-kept core tick.

Things the timing core used to re-derive and now keeps by events are held
here to the forms they replaced, kept as test-side oracles:

* the scheduler's three masks (recomputed only when an input moved) against
  the per-tick all-warps rebuild, at every ``select`` of every core;
* a write-through storm behind a cache level (refused in bulk once the
  lower port reports itself ``blocked``) against lower ports that forward
  lane by lane, on every counter of every level and on the event streams;
* a write-blocked store queue charged from its lane tallies against the
  per-run pass over the queue, and the tallies against a recount;
* memory levels ticked only from their ``wake`` cycle on against every
  level ticked on every cycle.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SCHEDULER_POLICIES, CacheConfig, MemoryConfig, VortexConfig
from repro.core.processor import TimingProcessor
from repro.core.timing import _lanes_of, _PendingMemOp
from repro.kernels import KERNELS
from repro.mem.dram import MemRequest
from repro.runtime.device import VortexDevice
from repro.trace.bus import TraceBus
from repro.trace.sinks import MemorySink

from test_cache_hierarchy import forward_lane_by_lane
from test_golden_counters import MixedSharedGlobalKernel, _smem_counters
from test_processor_and_drivers import _global_barrier_program
from test_trace import _local_barrier_program

# -- scheduler masks: kept by events == rebuilt from every warp -----------------------------


def _masks_from_scratch(core) -> tuple[int, int, int]:
    """The polling loop ``TimingCore.tick`` ran every cycle before the masks
    were kept by events — the oracle for the kept ones."""
    active_mask = stalled_mask = barrier_mask = 0
    for warp in core.func.warps:
        bit = 1 << warp.warp_id
        if warp.active:
            active_mask |= bit
        if warp.at_barrier:
            barrier_mask |= bit
        waiting = warp.warp_id in core._pending_ifetch
        if core._warp_ready_cycle[warp.warp_id] > core.clock.now or waiting:
            stalled_mask |= bit
    return active_mask, stalled_mask, barrier_mask


def _check_masks_at_every_select(processor: TimingProcessor) -> list[int]:
    """Wrap each core's ``scheduler.select`` (ticks and fast-forward replays
    both go through it) with the oracle comparison; returns the check tally."""
    checks = [0]
    for core in processor.cores:
        scheduler = core.scheduler

        def select(core=core, scheduler=scheduler, real=scheduler.select):
            kept = (scheduler.active_mask, scheduler.stalled_mask, scheduler.barrier_mask)
            assert kept == _masks_from_scratch(core), (core.core_id, core.clock.now)
            checks[0] += 1
            return real()

        scheduler.select = select
    return checks


@pytest.mark.parametrize("policy", sorted(SCHEDULER_POLICIES))
class TestKeptMasksEqualTheRebuild:
    def _config(self, policy: str, cores: int = 1) -> VortexConfig:
        return VortexConfig(
            num_cores=cores, memory=MemoryConfig(latency=40, bandwidth=1)
        ).with_scheduler_policy(policy)

    def test_sgemm(self, policy):
        device = VortexDevice(self._config(policy), driver="simx")
        checks = _check_masks_at_every_select(device.driver.processor)
        assert KERNELS["sgemm"]().run(device, size=6 * 6).passed
        assert checks[0] > 1000

    @pytest.mark.parametrize(
        "program,cores",
        [(_local_barrier_program(), 1), (_global_barrier_program(2), 2)],
        ids=["wspawn-tmc-bar", "global-barrier"],
    )
    def test_barrier_programs(self, policy, program, cores):
        processor = TimingProcessor(self._config(policy, cores))
        checks = _check_masks_at_every_select(processor)
        processor.memory.load_words(program.base, program.words)
        processor.run(program.entry)
        assert processor.done and checks[0] > 0
        local = processor.cores[0].func.barriers
        assert processor._global_barriers.releases or local.releases  # it filled and released


# -- write storms: refused in bulk == forwarded lane by lane --------------------------------


def _storm_run(cores: int, l3: bool, trace_file=None) -> tuple[dict, str | None, int]:
    """saxpy behind L2 (+L3) against a 2-entry DRAM queue that stays full.

    Returns every level's counters, the dcache/l2/l3/dram JSONL stream (when
    traced) and how many lanes the D$s handed to ``refuse_writes``.
    """
    config = replace(
        VortexConfig(num_cores=cores).with_cache_hierarchy(enable_l2=True, enable_l3=l3),
        memory=MemoryConfig(latency=60, bandwidth=1, request_queue_size=2),
    )
    spec = "simx"
    if trace_file is not None:
        spec += f":trace=jsonl,trace_file={trace_file},trace_channels=dcache+l2+l3+dram"
    device = VortexDevice(config, driver=spec)
    processor = device.driver.processor
    blocked = [0]
    for dcache in processor.memsys.dcaches:

        def refuse(cache, runs, lanes, cycle, real=dcache.lower.refuse_writes):
            blocked[0] += lanes
            real(cache, runs, lanes, cycle)

        dcache.lower.refuse_writes = refuse
    assert KERNELS["saxpy"]().run(device, size=32).passed
    events = None if trace_file is None else trace_file.read_text()
    return processor.counters(), events, blocked[0]


@pytest.mark.parametrize(
    "cores,l3", [(2, False), (8, False), (2, True)], ids=["2c-l2", "8c-l2", "2c-l2-l3"]
)
def test_bulk_refused_storm_equals_lane_by_lane(cores, l3, tmp_path, monkeypatch):
    counters, _, blocked = _storm_run(cores, l3)
    traced_counters, events, _ = _storm_run(cores, l3, tmp_path / "kept.jsonl")
    forward_lane_by_lane(monkeypatch)
    twin_counters, _, twin_blocked = _storm_run(cores, l3)
    _, twin_events, _ = _storm_run(cores, l3, tmp_path / "twin.jsonl")

    assert blocked > 0 and twin_blocked == 0  # the rule fired here, never in the twin
    assert counters["dram"]["rejected"] >= blocked > counters["dram"]["writes"]
    assert counters == twin_counters == traced_counters
    assert events == twin_events  # byte for byte: per-lane order across dcache/l2/l3


# -- a write-blocked store queue: charged from tallies == the per-run pass ------------------


def _tallies(core) -> tuple:
    return core._store_smem_lanes, list(core._store_bank_lanes), dict(core._store_line_lanes)


def _blocked_drain(geometry, l2_busy, stores, loads, shortcut, traced=False):
    """One drain of a store queue over ``stores`` against a full DRAM queue,
    behind a load op over ``loads`` (warm lines: its hits take bank ports
    first).  ``l2_busy`` has another request hold an L2 port, which a count
    cannot be charged past.  Returns the processor, what it observably did
    (with ``traced``, the drain's trace events too) and what each tally
    charge answered (``shortcut=False``: the twin, in which every charge
    declines and the per-run pass runs)."""
    banks, ports, l2 = geometry
    config = replace(
        VortexConfig().with_warps_threads(4, 16).with_cache_hierarchy(enable_l2=l2),
        dcache=CacheConfig(size=4 * 1024, line_size=64, num_banks=banks, num_ports=ports),
        memory=MemoryConfig(latency=60, bandwidth=1, request_queue_size=2),
    )
    sink = MemorySink()
    bus = TraceBus([sink]) if traced else None
    processor = TimingProcessor(config, trace=bus)
    core, memsys = processor.cores[0], processor.memsys
    dcache = core.dcache
    for address in loads:
        dcache.fill(address // 64)
    if l2_busy:
        memsys.l2[0].fill(0)
        assert memsys.l2[0].send(0)
    while memsys.dram.can_accept:
        memsys.dram.send(MemRequest(address=0, is_write=True))
    entries = core._request_entries(loads)
    core._pending_ops[0] = _PendingMemOp(0, 0, 1, False, True, "load", entries)
    core._store_queue = core._request_entries(stores)
    core._recount_stores()
    answers = []

    def charge(*args, real=dcache.charge_blocked_writes):
        answers.append(shortcut and real(*args))
        return answers[-1]

    dcache.charge_blocked_writes = charge
    if traced:
        bus.flush()
    setup_events = len(sink.events)  # the scene's fills and sends
    core._drain_requests()
    op = core._pending_ops[0]
    queues = (_lanes_of(core._store_queue), _lanes_of(op.to_send), op.outstanding)
    if traced:
        bus.flush()
        queues += (sink.events[setup_events:],)
    return processor, (memsys.counters(), queues), answers


_word_addresses = st.tuples(st.integers(0, 7), st.integers(0, 15)).map(
    lambda line_word: line_word[0] * 64 + line_word[1] * 4
)


@settings(max_examples=80, deadline=None)
@given(
    geometry=st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4]), st.booleans()),
    l2_busy=st.booleans(),
    stores=st.lists(_word_addresses, min_size=1, max_size=24),
    loads=st.lists(_word_addresses, max_size=8),
    traced=st.booleans(),
)
def test_tally_charge_equals_the_per_run_pass(geometry, l2_busy, stores, loads, traced):
    """Traced too: the tally charge emits, run by run, the events the
    per-run pass emits lane by lane."""
    l2_busy = l2_busy and geometry[2]
    processor, observed, answers = _blocked_drain(geometry, l2_busy, stores, loads, True, traced)
    _, twin, twin_answers = _blocked_drain(geometry, l2_busy, stores, loads, False, traced)
    assert observed == twin  # every level's counters, both queues (and events), lane by lane
    assert twin_answers == [False]
    assert answers == [True]  # behind any lower level, traced or not, ports taken or not

    core = processor.cores[0]
    kept = _tallies(core)
    core._recount_stores()
    assert _tallies(core) == kept
    fresh = TimingProcessor(processor.config)
    fresh.restore(processor.snapshot())
    assert _tallies(fresh.cores[0]) == kept



# -- quiet levels: ticked from their wake cycle on == ticked every cycle --------------------


def _wake_run(kernel, size: int, config: VortexConfig, trace_file, every_cycle: bool):
    """One traced launch; with ``every_cycle`` each level's ``wake`` is reset
    before every processor tick, so DRAM, every cache and every scratchpad
    tick on every ticked cycle."""
    device = VortexDevice(config, driver=f"simx:trace=jsonl,trace_file={trace_file}")
    processor = device.driver.processor
    if every_cycle:
        memsys = processor.memsys
        levels = [memsys.dram, *memsys._levels, *(core.smem for core in processor.cores)]

        def tick(real=processor.tick):
            for level in levels:
                level.wake = 0
            real()

        processor.tick = tick
    run = kernel().run(device, size=size)
    assert run.passed
    return (
        run.report.cycles,
        processor.counters(),
        _smem_counters(processor),
        processor.snapshot(),
        trace_file.read_bytes(),
    )


@pytest.mark.parametrize(
    "kernel,size,config",
    [
        (
            MixedSharedGlobalKernel, 64,
            VortexConfig(memory=MemoryConfig(latency=40, bandwidth=1))
            .with_cache_hierarchy(enable_l2=True, enable_l3=True),
        ),
        (
            KERNELS["sgemm"], 8 * 8,
            VortexConfig(num_cores=2, memory=MemoryConfig(latency=30, bandwidth=1))
            .with_cache_hierarchy(enable_l2=True),
        ),
    ],
    ids=["smem-l2-l3", "sgemm-2c-l2"],
)
def test_levels_ticked_from_their_wake_equal_every_cycle(kernel, size, config, tmp_path):
    kept = _wake_run(kernel, size, config, tmp_path / "kept.jsonl", every_cycle=False)
    every = _wake_run(kernel, size, config, tmp_path / "every.jsonl", every_cycle=True)
    if kernel is MixedSharedGlobalKernel:
        assert kept[2]["smem0"]["reads"] > 0  # the scratchpad took part
    assert kept[1]["l2_0"]["accepted"] > 0
    assert kept == every
