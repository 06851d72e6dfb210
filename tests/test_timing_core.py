"""Tests for the cycle-level (SIMX) timing behaviour."""

import gc
import weakref

from repro.cache.sharedmem import SHARED_MEM_BASE
from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.kernels import SgemmKernel, VecAddKernel
from repro.runtime.device import VortexDevice


def _run(kernel_cls, config, size=64):
    device = VortexDevice(config, driver="simx")
    run = kernel_cls().run(device, size=size)
    assert run.passed
    return run.report


def test_ipc_bounded_by_thread_count():
    config = VortexConfig()
    report = _run(VecAddKernel, config)
    assert 0 < report.ipc <= config.core.num_threads


def test_more_warps_hide_memory_latency():
    slow_memory = MemoryConfig(latency=150, bandwidth=1)
    few_warps = VortexConfig(memory=slow_memory).with_warps_threads(1, 4)
    many_warps = VortexConfig(memory=slow_memory).with_warps_threads(8, 4)
    assert _run(VecAddKernel, many_warps).ipc > _run(VecAddKernel, few_warps).ipc


def test_higher_memory_latency_slows_execution():
    fast = VortexConfig(memory=MemoryConfig(latency=10, bandwidth=1))
    slow = VortexConfig(memory=MemoryConfig(latency=400, bandwidth=1))
    assert _run(VecAddKernel, slow).cycles > _run(VecAddKernel, fast).cycles


def test_more_cores_reduce_cycles_for_compute_kernel():
    single = VortexConfig(num_cores=1)
    quad = VortexConfig(num_cores=4)
    single_cycles = _run(SgemmKernel, single, size=16 * 16).cycles
    quad_cycles = _run(SgemmKernel, quad, size=16 * 16).cycles
    assert quad_cycles < single_cycles
    # Aggregate IPC should also rise with the core count.
    assert _run(SgemmKernel, quad, size=16 * 16).ipc > _run(SgemmKernel, single, size=16 * 16).ipc


def test_scoreboard_and_cache_counters_populated():
    report = _run(SgemmKernel, VortexConfig(), size=8 * 8)
    core = report.counters["core0"]
    assert core["scoreboard_stalls"] > 0
    assert core["loads"] > 0
    dcache = report.counters["dcache0"]
    assert dcache["attempts"] >= dcache["accepted"] > 0


def test_more_virtual_ports_do_not_hurt_performance():
    base = VortexConfig(dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1))
    ported = base.with_dcache_ports(4)
    cycles_1p = _run(SgemmKernel, base, size=12 * 12).cycles
    cycles_4p = _run(SgemmKernel, ported, size=12 * 12).cycles
    assert cycles_4p <= cycles_1p * 1.02


def test_dcache_bank_utilization_reported():
    report = _run(VecAddKernel, VortexConfig(), size=128)
    dcache = report.counters["dcache0"]
    total = dcache["accepted"] + dcache.get("bank_conflicts", 0)
    assert total > 0


def test_report_summary_format():
    report = _run(VecAddKernel, VortexConfig(), size=32)
    text = report.summary()
    assert "simx" in text and "IPC" in text
    assert report.warp_ipc <= report.ipc


# -- request runs --------------------------------------------------------------------------


def _timing_core(config=None):
    return VortexDevice(config or VortexConfig(), driver="simx").driver.processor.cores[0]


def _lane_traces():
    """Lane traces of one memory instruction at 7/8/9 lanes (the numpy path
    takes over at 8): contiguous words, a fully strided trace (one lane per
    run), revisits of one line, and scratchpad-window and global addresses
    mixed in one instruction."""
    base = 0x8000_0000
    for lanes in (7, 8, 9):
        yield [base + 4 * lane for lane in range(lanes)]
        yield [base + 60 + 4 * lane for lane in range(lanes)]  # crosses a line boundary
        yield [base + 256 * lane for lane in range(lanes)]
        yield [base + 64 * (lane // 3 % 2) + 4 * lane for lane in range(lanes)]
        yield [(SHARED_MEM_BASE if lane % 4 < 2 else base) + 4 * lane for lane in range(lanes)]
        yield [SHARED_MEM_BASE - 8 + 4 * lane for lane in range(lanes)]  # walks into the window


def test_request_entries_partition_the_lane_trace_into_same_line_runs():
    core = _timing_core()
    line_size = core.dcache.config.line_size
    num_banks = core.dcache.config.num_banks
    assert core._request_entries([]) == []
    for addresses in _lane_traces():
        runs = core._request_entries(addresses)
        # Lane order is kept and nothing is dropped, duplicated or left empty.
        assert [address for run in runs for address in run[0]] == addresses
        for lanes, line, bank, to_smem in runs:
            assert isinstance(lanes, tuple) and lanes
            assert all(type(address) is int for address in lanes)
            assert {address // line_size for address in lanes} == {line}
            assert {address >= SHARED_MEM_BASE for address in lanes} == {to_smem}
            assert (type(line), bank, type(to_smem)) == (int, line % num_banks, bool)
        # Runs are maximal: neighbours differ in line or destination.
        for left, right in zip(runs, runs[1:]):
            assert (left[1], left[3]) != (right[1], right[3])


def test_request_entries_numpy_and_loop_paths_agree():
    """The numpy cut-point search (≥8 lanes) and the plain loop (<8) build
    the same runs: both equal a lane-by-lane grouping, on the full trace and
    on its first seven lanes."""
    core = _timing_core()
    line_size = core.dcache.config.line_size
    num_banks = core.dcache.config.num_banks

    def lane_by_lane(addresses):
        runs = []
        for address in addresses:
            key = (address // line_size, address // line_size % num_banks,
                   address >= SHARED_MEM_BASE)
            if runs and runs[-1][1:] == key:
                runs[-1] = (runs[-1][0] + (address,), *key)
            else:
                runs.append(((address,), *key))
        return runs

    for addresses in _lane_traces():
        assert core._request_entries(addresses) == lane_by_lane(addresses)
        assert core._request_entries(addresses[:7]) == lane_by_lane(addresses[:7])
    strided = [0x8000_0000 + 256 * lane for lane in range(9)]
    assert [len(run[0]) for run in core._request_entries(strided)] == [1] * 9
    assert [len(run[0]) for run in core._request_entries(strided[:7])] == [1] * 7


def test_dropped_simx_device_is_freed_by_reference_counting():
    """``SimtCore.processor`` is a weak back-reference, so the timing half of
    a dropped device — processor, timing cores, every cache, the DRAM model —
    dies on ``del`` without waiting for the cycle collector."""
    config = VortexConfig(num_cores=2).with_warps_threads(2, 4)
    gc.collect()
    gc.disable()
    try:
        device = VortexDevice(config, driver="simx")
        assert VecAddKernel().run(device, size=32).passed
        processor = device.driver.processor
        memsys = processor.memsys
        watched = [processor, memsys, memsys.dram, *processor.cores, *memsys.dcaches,
                   *memsys.icaches]
        alive = [weakref.ref(obj) for obj in watched]
        del device, processor, memsys, watched
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()
