"""System-level tests: multi-core processors, the two simulation drivers,
the command processor (AFU) and the device facade."""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.common.config import MemoryConfig, VortexConfig
from repro.core.barrier import GLOBAL_BARRIER_FLAG
from repro.core.emulator import EmulationError, SimulationStalled
from repro.core.processor import Processor, TimingProcessor
from repro.isa.builder import ProgramBuilder
from repro.isa.csr import CSR
from repro.isa.registers import Reg
from repro.kernels import SaxpyKernel, VecAddKernel
from repro.runtime.buffer import AllocationError, BufferAllocator
from repro.runtime.device import VortexDevice
from repro.runtime.driver import DriverError, Mmio, Status
from repro.runtime.launch import LaunchOptions
from repro.runtime.opencl import Context, Program

BASE = 0x8000_0000


def _per_core_store_program():
    """Each core's warp 0 stores (100 + core_id) to 0x1000 + 4*core_id."""
    asm = ProgramBuilder(base=BASE)
    asm.csr_read(Reg.t0, CSR.CORE_ID)
    asm.slli(Reg.t1, Reg.t0, 2)
    asm.li(Reg.a0, 0x1000)
    asm.add(Reg.a0, Reg.a0, Reg.t1)
    asm.addi(Reg.t2, Reg.t0, 100)
    asm.sw(Reg.t2, 0, Reg.a0)
    asm.li(Reg.t6, 0)
    asm.tmc(Reg.t6)
    return asm.assemble()


def _global_barrier_program(num_cores):
    """Warp 0 of every core arrives at a global barrier, then core 0 sums flags."""
    asm = ProgramBuilder(base=BASE)
    asm.csr_read(Reg.t0, CSR.CORE_ID)
    asm.slli(Reg.t1, Reg.t0, 2)
    asm.li(Reg.a0, 0x2000)
    asm.add(Reg.a1, Reg.a0, Reg.t1)
    asm.li(Reg.t2, 1)
    asm.sw(Reg.t2, 0, Reg.a1)
    # Global barrier: MSB set, one wavefront per core expected.
    asm.li(Reg.t3, GLOBAL_BARRIER_FLAG)
    asm.li(Reg.t4, num_cores)
    asm.bar(Reg.t3, Reg.t4)
    asm.bnez(Reg.t0, "done")
    asm.li(Reg.t5, 0)
    for core in range(num_cores):
        asm.lw(Reg.t6, core * 4, Reg.a0)
        asm.add(Reg.t5, Reg.t5, Reg.t6)
    asm.sw(Reg.t5, 0x100, Reg.a0)
    asm.label("done")
    asm.li(Reg.t6, 0)
    asm.tmc(Reg.t6)
    return asm.assemble()


# -- functional multi-core processor ---------------------------------------------------------


def test_functional_processor_runs_all_cores():
    config = VortexConfig(num_cores=4)
    processor = Processor(config)
    program = _per_core_store_program()
    processor.memory.load_words(program.base, program.words)
    processor.run(program.entry)
    assert processor.memory.read_words(0x1000, 4) == [100, 101, 102, 103]
    assert processor.done


def test_global_barrier_across_cores_functional():
    config = VortexConfig(num_cores=4)
    processor = Processor(config)
    program = _global_barrier_program(4)
    processor.memory.load_words(program.base, program.words)
    processor.run(program.entry)
    assert processor.memory.read_word(0x2100) == 4


# -- timing multi-core processor -------------------------------------------------------------


def test_timing_processor_matches_functional_results():
    config = VortexConfig(num_cores=2, memory=MemoryConfig(latency=30, bandwidth=1))
    program = _per_core_store_program()

    timing = TimingProcessor(config)
    timing.memory.load_words(program.base, program.words)
    cycles = timing.run(program.entry)
    assert cycles > 0
    assert timing.memory.read_words(0x1000, 2) == [100, 101]
    assert timing.total_instructions > 0
    assert 0 < timing.ipc <= config.core.num_threads * config.num_cores


def test_global_barrier_across_cores_timing():
    config = VortexConfig(num_cores=2, memory=MemoryConfig(latency=20, bandwidth=1))
    processor = TimingProcessor(config)
    program = _global_barrier_program(2)
    processor.memory.load_words(program.base, program.words)
    processor.run(program.entry)
    assert processor.memory.read_word(0x2100) == 2


def test_timing_counters_include_caches():
    config = VortexConfig(num_cores=1)
    processor = TimingProcessor(config)
    program = _per_core_store_program()
    processor.memory.load_words(program.base, program.words)
    processor.run(program.entry)
    counters = processor.counters()
    assert "dcache0" in counters and "icache0" in counters and "dram" in counters
    assert counters["icache0"]["attempts"] > 0


# -- drivers produce consistent results --------------------------------------------------------


@pytest.mark.parametrize("kernel_cls", [VecAddKernel, SaxpyKernel])
def test_funcsim_and_simx_agree_on_kernel_output(kernel_cls):
    results = {}
    for driver in ("funcsim", "simx"):
        device = VortexDevice(VortexConfig(), driver=driver)
        run = kernel_cls().run(device, size=64)
        assert run.passed
        results[driver] = run.report
    assert results["funcsim"].instructions == results["simx"].instructions
    assert results["simx"].cycles > 0
    assert results["funcsim"].cycles == 0


# -- AFU / command processor --------------------------------------------------------------------


def test_afu_dma_and_mmio_protocol():
    device = VortexDevice(VortexConfig(), driver="funcsim")
    afu = device.afu
    assert afu.status == Status.IDLE
    afu.dma_host_to_device(0x100, b"\x11\x22\x33\x44")
    assert afu.dma_device_to_host(0x100, 4) == b"\x11\x22\x33\x44"
    assert afu.perf.get("h2d_bytes") == 4
    assert afu.perf.get("d2h_bytes") == 4
    assert afu.estimated_transfer_seconds() > 0
    with pytest.raises(DriverError):
        afu.mmio_read(0x999)


def test_afu_launch_updates_status_and_counters():
    device = VortexDevice(VortexConfig(), driver="simx")
    run = VecAddKernel().run(device, size=32)
    assert run.passed
    afu = device.afu
    assert afu.status == Status.DONE
    assert afu.mmio_read(int(Mmio.CYCLE_COUNT)) == run.report.cycles
    assert afu.mmio_read(int(Mmio.INSTR_COUNT)) == run.report.instructions
    assert afu.perf.get("launches") == 1


# -- buffers and device facade --------------------------------------------------------------------


def test_buffer_allocator_alignment_and_exhaustion():
    allocator = BufferAllocator(base=0x1000, size=0x100)
    first = allocator.allocate(10, alignment=64)
    second = allocator.allocate(10, alignment=64)
    assert first % 64 == 0 and second % 64 == 0 and second > first
    with pytest.raises(AllocationError):
        allocator.allocate(0x1000)
    allocator.reset()
    assert allocator.allocate(16) == 0x1000


def test_device_buffer_numpy_roundtrip():
    device = VortexDevice(VortexConfig(), driver="funcsim")
    data = np.arange(100, dtype=np.uint32)
    buffer = device.alloc_array(data)
    assert np.array_equal(buffer.read(np.uint32, 100), data)
    floats = np.linspace(0, 1, 50, dtype=np.float32)
    fbuf = device.alloc_array(floats)
    assert np.allclose(fbuf.read(np.float32, 50), floats)


def test_device_rejects_unknown_driver():
    with pytest.raises(ValueError):
        VortexDevice(VortexConfig(), driver="verilator")


@pytest.mark.parametrize("driver_cls", ["simx", "funcsim"])
def test_instance_constructed_driver_shares_device_memory(driver_cls):
    """Regression: a driver object constructed with its own ``MainMemory``
    used to simulate on different memory than the AFU DMAs into — uploads
    and readbacks silently missed the simulation.  The device now adopts
    the driver's memory."""
    from repro.runtime.driver import FuncSimDriver
    from repro.runtime.simx import SimxDriver

    cls = SimxDriver if driver_cls == "simx" else FuncSimDriver
    driver = cls(VortexConfig())  # builds its own MainMemory
    device = VortexDevice(VortexConfig(), driver=driver)
    assert device.memory is driver.memory
    assert device.afu.memory is driver.memory

    # Full upload -> launch -> readback through the instance-constructed driver.
    run = VecAddKernel().run(device, size=64)
    assert run.passed
    assert run.report.instructions > 0


def test_launch_without_program_requires_entry():
    device = VortexDevice(VortexConfig(), driver="funcsim")
    with pytest.raises(ValueError):
        device.launch()


# -- OpenCL-style host API --------------------------------------------------------------------------


def test_opencl_style_vecadd():
    ctx = Context(VortexConfig(), driver="funcsim")
    program = Program(ctx, ["vecadd"])
    assert program.kernel_names == ["vecadd"]
    size = 64
    a = np.arange(size, dtype=np.uint32)
    b = np.full(size, 5, dtype=np.uint32)
    buf_a = ctx.buffer_from(a)
    buf_b = ctx.buffer_from(b)
    buf_c = ctx.buffer(size * 4)
    kernel = program.kernel("vecadd").set_args(buf_a, buf_b, buf_c)
    report = kernel.enqueue(global_size=size)
    assert report.instructions > 0
    assert np.array_equal(buf_c.read(np.uint32, size), a + b)


def test_opencl_enqueues_on_one_context_report_tick_loop_cycles():
    """A multi-kernel host program relaunches on one device; every enqueue
    after the first used to report inflated cycles (the fast-forward compared
    a restarted core clock with the memory side's running one — there is one
    device clock now, and a launch is a window of it)."""
    size = 64
    reports = []
    for ticked in (False, True):
        ctx = Context(VortexConfig(), driver="simx")
        processor = ctx.device.driver.processor
        if ticked:  # the twin advances every launch by reset + tick() alone

            def run(entry_pc, processor=processor, **_limits):
                processor.reset(entry_pc)
                with np.errstate(all="ignore"):
                    while not processor.done:
                        processor.tick()
                return processor.cycle

            processor.run = run
        a = ctx.buffer_from(np.arange(size, dtype=np.uint32))
        b = ctx.buffer_from(np.full(size, 5, dtype=np.uint32))
        c = ctx.buffer(size * 4)
        program = Program(ctx, ["vecadd", "saxpy"])
        reports.append(
            [
                program.kernel("vecadd").set_args(a, b, c).enqueue(global_size=size),
                program.kernel("saxpy").set_args(2.0, a, c).enqueue(global_size=size),
                program.kernel("vecadd").set_args(a, b, c).enqueue(global_size=size),
            ]
        )
    for fast, reference in zip(*reports):
        assert fast.cycles == reference.cycles
        assert fast.counters == reference.counters


def test_opencl_unknown_kernel_rejected():
    ctx = Context(VortexConfig(), driver="funcsim")
    with pytest.raises(KeyError):
        Program(ctx, ["not_a_kernel"])


# -- failures that explain themselves --------------------------------------------------------


def _mismatched_barrier_program():
    """Every wavefront arrives at barrier 3 expecting one arrival more than
    exist."""
    asm = ProgramBuilder(base=BASE)
    asm.csr_read(Reg.t0, CSR.NUM_WARPS)
    asm.la(Reg.t1, "worker")
    asm.wspawn(Reg.t0, Reg.t1)
    asm.label("worker")
    asm.li(Reg.t5, 3)
    asm.csr_read(Reg.t6, CSR.NUM_WARPS)
    asm.addi(Reg.t6, Reg.t6, 1)
    asm.bar(Reg.t5, Reg.t6)
    asm.li(Reg.t6, 0)
    asm.tmc(Reg.t6)
    return asm.assemble()


def test_mismatched_barrier_count_raises_simulation_stalled(monkeypatch):
    """Every wavefront arrives at barrier 3 expecting one arrival more than
    exist: nothing ever retires again and the watchdog names who waits where."""
    program = _mismatched_barrier_program()

    monkeypatch.setattr(TimingProcessor, "NO_PROGRESS_LIMIT", 300)
    processor = TimingProcessor(VortexConfig(memory=MemoryConfig(latency=20, bandwidth=1)))
    processor.memory.load_words(program.base, program.words)
    with pytest.raises(EmulationError, match="no progress for 300 cycles") as excinfo:
        processor.run(program.entry)
    stalled = excinfo.value
    assert isinstance(stalled, SimulationStalled)
    num_warps = processor.config.core.num_warps
    assert stalled.window == 300 and stalled.cycle == processor.cycle
    assert stalled.global_barriers == []
    (core,) = stalled.cores
    ((barrier, expected, waiting),) = core["barriers"]  # waiting: arrival order
    assert (barrier, expected, sorted(waiting)) == (3, num_warps + 1, list(range(num_warps)))
    assert core["barrier_mask"] == core["active_mask"] == (1 << num_warps) - 1
    assert core["pending_ifetch"] == core["pending_ops"] == core["pending_mshr"] == 0
    assert set(core["scoreboard_busy"]) == set(range(num_warps))
    assert f"core 0 warps {waiting} at barrier 3 ({num_warps}/{num_warps + 1})" in str(stalled)


def test_the_watchdog_streak_survives_a_pause(monkeypatch):
    """A hung kernel stalls at the same cycle whether it launches straight,
    in chunks far shorter than the watchdog window, or restored from a
    mid-stall checkpoint: the no-progress streak is processor state."""
    program = _mismatched_barrier_program()
    monkeypatch.setattr(TimingProcessor, "NO_PROGRESS_LIMIT", 300)
    config = VortexConfig(memory=MemoryConfig(latency=20, bandwidth=1))
    options = LaunchOptions(max_cycles=20_000)

    def restored(device):
        device.launch_chunk(200, program.entry, options)
        fresh = VortexDevice(config, driver="simx")
        fresh.restore(pickle.loads(pickle.dumps(device.checkpoint())))
        fresh.launch_resumable(options=options, checkpoint_every=50, resume=True)

    stalls = []
    for launch in (
        lambda device: device.launch(program.entry, options=options),
        lambda device: device.launch_resumable(program.entry, options, checkpoint_every=50),
        restored,
    ):
        device = VortexDevice(config, driver="simx")
        device.upload_program(program)
        with pytest.raises(SimulationStalled) as excinfo:
            launch(device)
        stalls.append((excinfo.value.cycle, str(excinfo.value)))
    assert stalls[0][0] < 1_000
    assert stalls == [stalls[0]] * 3


def test_mismatched_barrier_count_deadlocks_funcsim_as_the_oracle():
    """On the functional drivers the same kernel is a deadlock the round
    loop reports: ``funcsim`` raises it where the per-thread oracle does,
    with the same counters and warp PCs — no window or block spins on the
    barrier."""
    from repro.runtime.registry import create_driver

    program = _mismatched_barrier_program()
    outcomes = []
    for spec in ("funcsimref", "funcsim"):
        driver = create_driver(spec, VortexConfig())
        driver.memory.load_words(program.base, program.words)
        with pytest.raises(EmulationError, match="processor deadlocked") as excinfo:
            driver.run(program.entry)
        assert type(excinfo.value) is EmulationError
        cores = driver.processor.cores
        outcomes.append(
            (
                str(excinfo.value),
                driver.processor.counters(),
                [core.csr.instret for core in cores],
                [
                    (warp.pc, warp.instructions, warp.at_barrier)
                    for core in cores
                    for warp in core.warps
                ],
            )
        )
    assert outcomes[0] == outcomes[1]
    assert all(at_barrier for _, _, at_barrier in outcomes[1][3])


@pytest.mark.parametrize("driver", ["simx", "funcsim"])
def test_dropped_device_dies_by_refcount(driver):
    """No reference cycle may keep a dropped device's ``MainMemory`` (most of
    its footprint) or its cores waiting for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        device = VortexDevice(VortexConfig(), driver=driver)
        assert VecAddKernel().run(device, size=64).passed
        core = device.driver.processor.cores[0]
        refs = [weakref.ref(device.memory), weakref.ref(getattr(core, "func", core))]
        del device, core
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
