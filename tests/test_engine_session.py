"""Tests for the execution-engine protocol, run limits, decode-cache
invalidation, the job records and batches served by ``ServiceClient``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cache.sharedmem import SHARED_MEM_BASE
from repro.common.config import VortexConfig
from repro.core.emulator import EmulationError, SimulationLimitExceeded
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import Reg
from repro.kernels import VecAddKernel
from repro.runtime.device import VortexDevice
from repro.runtime.driver import FuncSimDriver
from repro.runtime.jobs import BatchReport, KernelJob, diff_execution_reports, execute_job
from repro.runtime.launch import LaunchOptions
from repro.runtime.registry import ExecutionEngine, create_driver
from repro.runtime.simx import SimxDriver
from repro.service import ServiceClient, ServiceConfig

BASE = 0x8000_0000

#: A fleet of in-process workers: no processes to fork in these tests.
INLINE = ServiceConfig(num_shards=2, worker_mode="inline")


# -- execution-engine protocol -----------------------------------------------------------


@pytest.mark.parametrize("driver_cls", [FuncSimDriver, SimxDriver])
def test_drivers_implement_the_engine_protocol(driver_cls):
    driver = driver_cls(VortexConfig())
    assert isinstance(driver, ExecutionEngine)


def test_import_repro_stays_light():
    """``import repro`` (the job records included) loads no serving stack —
    asyncio and multiprocessing would cost every script start-up time and
    memory — and the dissolved ``repro.engine`` package is gone."""
    code = (
        "import sys, repro\n"
        "heavy = sorted({'asyncio', 'multiprocessing', 'repro.service'} & set(sys.modules))\n"
        "assert not heavy, heavy\n"
        "try:\n"
        "    import repro.engine\n"
        "except ModuleNotFoundError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('repro.engine still imports')\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_funcsim_rejects_unknown_engine():
    """Every engine is unknown now: the keyword itself is gone."""
    with pytest.raises(TypeError, match="engine"):
        FuncSimDriver(VortexConfig(), engine="quantum")


# -- unified run-limit handling ----------------------------------------------------------


def _infinite_loop_program():
    asm = ProgramBuilder(base=BASE)
    asm.label("spin")
    asm.j("spin")
    return asm.assemble()


@pytest.mark.parametrize("spec", ["funcsimref", "funcsim"], ids=["scalar", "vector"])
def test_funcsim_instruction_limit_raises_typed_error(spec):
    driver = create_driver(spec, VortexConfig())
    program = _infinite_loop_program()
    driver.memory.load_words(program.base, program.words)
    with pytest.raises(SimulationLimitExceeded) as excinfo:
        driver.run(program.entry, LaunchOptions(max_instructions=500))
    assert excinfo.value.kind == "instructions"
    assert excinfo.value.limit == 500
    # Backwards compatible: still an EmulationError.
    assert isinstance(excinfo.value, EmulationError)


def test_simx_cycle_limit_raises_typed_error():
    driver = SimxDriver(VortexConfig())
    program = _infinite_loop_program()
    driver.memory.load_words(program.base, program.words)
    with pytest.raises(SimulationLimitExceeded) as excinfo:
        driver.run(program.entry, LaunchOptions(max_cycles=500))
    assert excinfo.value.kind == "cycles"
    assert excinfo.value.limit == 500


@pytest.mark.parametrize(
    "driver_cls,keyword",
    [(SimxDriver, "max_cycles"), (FuncSimDriver, "max_instructions")],
)
def test_driver_run_takes_budgets_from_options_only(driver_cls, keyword):
    """The pre-``LaunchOptions`` budget keywords are gone, not ignored."""
    driver = driver_cls(VortexConfig())
    with pytest.raises(TypeError, match=keyword):
        driver.run(BASE, **{keyword: 500})


# -- decode-cache invalidation -----------------------------------------------------------


def _constant_store_program(value):
    """Store ``value`` to 0x4000 from warp 0 / thread 0, then halt."""
    asm = ProgramBuilder(base=BASE)
    asm.li(Reg.t0, value)
    asm.li(Reg.t1, 0x4000)
    asm.sw(Reg.t0, 0, Reg.t1)
    asm.li(Reg.t2, 0)
    asm.tmc(Reg.t2)
    return asm.assemble()  # entry defaults to the image base


@pytest.mark.parametrize("driver", ["funcsim", "funcsimref", "simx", "simxref"])
def test_back_to_back_program_loads_use_fresh_decodes(driver):
    """Loading a second image at the same base must not execute stale decodes."""
    device = VortexDevice(VortexConfig(), driver=driver)
    first = _constant_store_program(111)
    second = _constant_store_program(222)
    assert first.base == second.base

    device.upload_program(first)
    device.launch(first.entry)
    assert device.memory.read_word(0x4000) == 111

    device.upload_program(second)
    device.launch(second.entry)
    assert device.memory.read_word(0x4000) == 222


def _scratchpad_roundtrip_program(value):
    """Store ``value`` to the scratchpad, load it back and use it, then halt:
    between load and use a scratchpad response is the only pending event."""
    asm = ProgramBuilder(base=BASE)
    asm.li(Reg.t0, value)
    asm.li(Reg.t1, SHARED_MEM_BASE)
    asm.sw(Reg.t0, 0, Reg.t1)
    asm.lw(Reg.t2, 0, Reg.t1)
    asm.addi(Reg.t2, Reg.t2, 1)
    asm.li(Reg.t3, 0x4000)
    asm.sw(Reg.t2, 0, Reg.t3)
    asm.li(Reg.t2, 0)
    asm.tmc(Reg.t2)
    return asm.assemble()


@pytest.mark.parametrize(
    "make_program,stored",
    [(_constant_store_program, 222), (_scratchpad_roundtrip_program, 223)],
    ids=["dcache", "scratchpad"],
)
def test_relaunch_reports_the_tick_loop_cycles(make_program, stored):
    """``reset`` starts a launch at the current reading of the one device
    clock (caches stay warm, nothing is rewound): a second and third launch
    report what ``reset`` + ``tick()`` reports on a twin device — and the same
    count as each other.  (Two clock domains compared raw once inflated the
    cycles of every launch after the first.)"""
    fast = VortexDevice(VortexConfig(), driver="simx")
    ticked = VortexDevice(VortexConfig(), driver="simx")
    cycles = []
    for program in (make_program(111), make_program(222), make_program(222)):
        for device in (fast, ticked):
            device.upload_program(program)
        cycles.append(fast.launch(program.entry).cycles)
        reference = ticked.driver.processor
        if len(cycles) == 1:
            ticked.launch(program.entry)
        else:
            reference.reset(program.entry)
            with np.errstate(all="ignore"):  # as TimingProcessor.run does for lane plans
                while not reference.done:
                    reference.tick()
        assert cycles[-1] == reference.cycle
        assert fast.driver.processor.counters() == reference.counters()
        assert fast.memory.read_word(0x4000) == ticked.memory.read_word(0x4000)
    assert fast.memory.read_word(0x4000) == stored
    assert cycles[1] == cycles[2] < cycles[0]  # warm caches: shorter, and repeatable


def test_upload_program_invalidates_driver_decode_caches():
    device = VortexDevice(VortexConfig(), driver="funcsim")
    program = _constant_store_program(7)
    device.upload_program(program)
    device.launch(program.entry)
    core = device.driver.processor.cores[0]
    assert core.emulator._decode_cache  # warm after a run
    device.upload_program(_constant_store_program(8))
    assert not core.emulator._decode_cache
    assert all(not warp.plan_cache for warp in core.warps)


def test_upload_program_invalidates_timing_plan_caches():
    """SIMX keeps three per-PC caches: each warp's lane plans, the timing
    core's hazard registers and the decodes; a new program image at the
    same base must drop all three."""
    device = VortexDevice(VortexConfig(), driver="simx")
    program = _constant_store_program(7)
    device.upload_program(program)
    device.launch(program.entry)
    core = device.driver.processor.cores[0]
    assert core.func.emulator._decode_cache
    assert any(warp.plan_cache for warp in core.func.warps)
    assert core._registers_by_pc
    device.upload_program(_constant_store_program(8))
    assert not core.func.emulator._decode_cache
    assert all(not warp.plan_cache for warp in core.func.warps)
    assert not core._registers_by_pc


# -- execution reports -------------------------------------------------------------------


def test_reports_carry_wall_clock_and_rates():
    device = VortexDevice(VortexConfig(), driver="funcsim")
    run = VecAddKernel().run(device, size=64)
    report = run.report
    assert report.wall_seconds > 0.0
    assert report.instructions_per_second > 0.0
    assert report.thread_instructions_per_second >= report.instructions_per_second
    assert report.engine == "vector"
    assert "instr/s" in report.summary()


# -- jobs and batches --------------------------------------------------------------------


def test_execute_job_reports_errors_instead_of_raising():
    result = execute_job(KernelJob(kernel="no-such-kernel"))
    assert not result.ok
    assert result.error is not None
    assert "KeyError" in result.error
    # The exception type is preserved machine-readably so retry policies can
    # classify the failure without parsing the message.
    assert result.error_type == "KeyError"


def test_job_result_payload_round_trips_through_execution_report():
    result = execute_job(KernelJob(kernel="vecadd", driver="funcsim", size=32))
    payload = result.to_payload()
    assert payload["ok"] is True
    assert payload["error"] is None and payload["error_type"] is None
    assert payload["attempts"] == 1 and payload["cached"] is False
    assert payload["report"] == result.report.to_payload()
    from repro.runtime.report import ExecutionReport

    assert ExecutionReport.from_payload(payload["report"]) == result.report


def test_session_runs_batch_of_jobs_concurrently():
    # Six *distinct* jobs: identical ones would dedup to one execution.
    # Jobs must run long enough (size ~1024, not 256) that a few ms of
    # thread-spawn stagger under full-suite load cannot serialize them
    # below the 4-in-flight acceptance bar.
    jobs = [
        KernelJob(kernel=kernel, driver="funcsim", size=size)
        for kernel in ("vecadd", "saxpy", "sgemm")
        for size in (1024, 1000)
    ]
    with ServiceClient(ServiceConfig(num_shards=6, worker_mode="inline")) as client:
        batch = client.run_batch(jobs)
    assert isinstance(batch, BatchReport)
    assert batch.cache_hits == 0
    assert len(batch.results) == 6
    assert batch.ok
    # At least four jobs were in flight at once (the acceptance bar).
    assert batch.peak_concurrency >= 4
    assert batch.total_simulated_instructions > 0
    assert "6 jobs" in batch.summary()


def test_session_results_preserve_submission_order():
    jobs = [
        KernelJob(kernel="vecadd", driver="funcsim", size=32, label="first"),
        KernelJob(kernel="saxpy", driver="funcsim", size=32, label="second"),
    ]
    with ServiceClient(INLINE) as client:
        batch = client.run_batch(jobs)
    assert [result.job.label for result in batch.results] == ["first", "second"]


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_session_process_pool_round_trip():
    config = ServiceConfig(num_shards=2, worker_mode="process")
    with ServiceClient(config) as client:
        batch = client.run_batch(
            [KernelJob(kernel="vecadd", driver="funcsim", size=size) for size in (64, 96)]
        )
        pids = client.worker_pids()
    assert batch.ok and batch.max_workers == 2
    assert all(result.report is not None for result in batch.results)
    assert os.getpid() not in pids  # served by worker processes, not inline


def test_session_close_stops_its_workers():
    """A fleet's worker processes live until its client closes."""
    config = ServiceConfig(num_shards=2, worker_mode="process")
    with ServiceClient(config) as client:
        assert client.run_batch([KernelJob(kernel="vecadd", driver="funcsim", size=64)]).ok
        pids = client.worker_pids()
        assert all(_alive(pid) for pid in pids)
    assert not any(_alive(pid) for pid in pids)


def test_kernel_job_suffix_driver_string_is_an_unknown_simulator():
    """The removed ``-scalar`` suffix spellings fail like any unknown name."""
    with pytest.raises(ValueError, match="unknown simulator 'simx-scalar'"):
        _ = KernelJob(kernel="vecadd", driver="simx-scalar").driver_name


def test_session_batch_runs_vectorized_timing_engine_bit_identical():
    """A design-space batch runs the vectorized SIMX core through the
    service; the same sweep on the per-thread oracle (``simxref``, in-process)
    must reproduce the exact same cycles and counters."""
    config = VortexConfig()
    jobs = [
        KernelJob(kernel=kernel, config=config, size=size, driver=driver)
        for kernel, size in (("vecadd", 64), ("sgemm", 36))
        for driver in ("simx", "simxref")
    ]
    with ServiceClient(INLINE) as client:
        batch = client.run_batch(jobs)
    assert batch.ok
    for vec, ref in zip(batch.results[::2], batch.results[1::2]):
        assert vec.report.engine == "timing-vector"
        assert diff_execution_reports(ref.report, vec.report) == []


# -- report comparison -------------------------------------------------------------------


def test_diff_execution_reports_flags_every_counter():
    from repro.runtime.report import ExecutionReport

    a = ExecutionReport(
        driver="simx",
        cycles=10,
        instructions=5,
        thread_instructions=20,
        counters={"core0": {"loads": 3}},
    )
    b = ExecutionReport(
        driver="simx",
        cycles=11,
        instructions=5,
        thread_instructions=20,
        counters={"core0": {"loads": 4}, "dcache0": {"hits": 1}},
    )
    diffs = diff_execution_reports(a, b)
    assert "cycles: 10 != 11" in diffs
    assert "core0.loads: 3 != 4" in diffs
    assert "dcache0.hits: 0 != 1" in diffs
    assert diff_execution_reports(a, a) == []


# -- launch options through a job -------------------------------------------------------


def test_job_launch_options_bound_the_run():
    result = execute_job(
        KernelJob(kernel="vecadd", size=64, options=LaunchOptions(max_cycles=10))
    )
    assert not result.ok
    assert "SimulationLimitExceeded" in result.error
    assert result.error_type == "SimulationLimitExceeded"


def test_session_rejects_unknown_executor():
    """The executor selector is gone: every batch runs through the service."""
    with pytest.raises(TypeError, match="executor"):
        ServiceConfig(executor="serial")


def test_empty_batch_is_a_noop():
    with ServiceClient(INLINE) as client:
        batch = client.run_batch([])
    assert batch.results == []
    assert batch.ok
