"""Invariants of the event-kept core tick.

Two things the timing core used to re-derive and now keeps by events are
held here to the forms they replaced, kept as test-side oracles:

* the scheduler's three masks (recomputed only when an input moved) against
  the per-tick all-warps rebuild, at every ``select`` of every core;
* a write-through storm behind a cache level (refused in bulk once the
  lower port reports itself ``blocked``) against lower ports that forward
  lane by lane, on every counter of every level and on the event streams.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import SCHEDULER_POLICIES, MemoryConfig, VortexConfig
from repro.core.processor import TimingProcessor
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice

from test_cache_hierarchy import forward_lane_by_lane
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
    traced) and how many lanes were handed to ``note_blocked_writes``.
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

        def note(runs, real=dcache.lower.note_blocked_writes):
            blocked[0] += sum(map(len, runs))
            real(runs)

        dcache.lower.note_blocked_writes = note
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
