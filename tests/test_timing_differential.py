"""Differential tests: the SIMX timing core vs the per-thread oracle.

``simx`` executes issued warps through the vectorized emulator's compiled
whole-warp lane plans; ``simxref`` (registered by ``tests/conftest.py``) is
the same driver with the per-thread reference emulator behind every
``TimingCore.func``.  The timing model (scheduler, scoreboard, latencies,
caches, MSHRs) is shared, so the two must report **bit-identical** cycles,
instruction counts and every performance counter on every configuration
the paper's figures sweep.
"""

from __future__ import annotations

import pytest

from repro.common.config import CORE_DESIGN_POINTS, CacheConfig, MemoryConfig, VortexConfig
from repro.runtime.jobs import KernelJob, diff_execution_reports, execute_job
from repro.kernels.texture import hardware_texture_kernel, software_texture_kernel
from repro.runtime.device import VortexDevice


def _fig_config(
    num_cores: int = 1,
    num_warps: int = 4,
    num_threads: int = 4,
    dcache_ports: int = 1,
) -> VortexConfig:
    """The benchmark harness's configuration shape (see benchmarks/harness.py)."""
    return VortexConfig(
        num_cores=num_cores,
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=dcache_ports),
        memory=MemoryConfig(latency=100, bandwidth=1),
    ).with_warps_threads(num_warps, num_threads)


def _differential(kernel: str, size: int, config: VortexConfig):
    """One job on the oracle and on ``simx``; returns both (identical) reports."""
    reference, subject = (
        execute_job(KernelJob(kernel=kernel, size=size, config=config, driver=driver))
        for driver in ("simxref", "simx")
    )
    assert reference.ok and subject.ok, (reference.error, subject.error)
    assert diff_execution_reports(reference.report, subject.report) == []
    return reference.report, subject.report


def test_reference_driver_runs_the_per_thread_emulator():
    """The oracle must not quietly be the vector engine compared with itself."""
    from repro.core.core import SimtCore, VectorSimtCore
    from repro.core.emulator import WarpEmulator
    from repro.core.processor import Processor, VectorProcessor

    for driver, core_cls in (("simxref", SimtCore), ("simx", VectorSimtCore)):
        func = VortexDevice(_fig_config(), driver=driver).driver.processor.cores[0].func
        assert type(func) is core_cls
        assert (type(func.emulator) is WarpEmulator) == (driver == "simxref")
    for driver, processor_cls in (("funcsimref", Processor), ("funcsim", VectorProcessor)):
        assert type(VortexDevice(driver=driver).driver.processor) is processor_cls


def test_simx_issues_through_lane_plans(monkeypatch):
    """The oracle is bit-identical, so no differential notices ``simx``
    stepping the per-thread emulator: with ``WarpEmulator.step`` broken, a
    ``simx`` launch of a kernel with branches, loads/stores and ``tex``
    still passes, and a ``simxref`` launch reaches ``step``."""
    from repro.core.emulator import WarpEmulator

    stepped = []

    def step(self, warp):
        stepped.append(warp.pc)
        raise RuntimeError("the per-thread step ran")

    monkeypatch.setattr(WarpEmulator, "step", step)
    kernel = hardware_texture_kernel("bilinear")
    assert kernel.run(VortexDevice(_fig_config(), driver="simx"), size=8 * 8).passed
    assert stepped == []
    with pytest.raises(RuntimeError, match="per-thread step"):
        kernel.run(VortexDevice(_fig_config(), driver="simxref"), size=8 * 8)
    assert stepped


# -- Figure 14: core design-space points ------------------------------------------------


@pytest.mark.parametrize("label", list(CORE_DESIGN_POINTS))
def test_fig14_design_points_bit_identical(label):
    warps, threads = CORE_DESIGN_POINTS[label]
    config = _fig_config(num_warps=warps, num_threads=threads)
    _, subject = _differential("sgemm", 8 * 8, config)
    assert subject.engine == "timing-vector"


@pytest.mark.parametrize("kernel,size", [("vecadd", 128), ("saxpy", 128), ("nearn", 128)])
def test_fig14_kernels_bit_identical(kernel, size):
    _differential(kernel, size, _fig_config())


# -- Figure 19: virtual multi-port caches ------------------------------------------------


@pytest.mark.parametrize("ports", [1, 2, 4])
def test_fig19_port_counts_bit_identical(ports):
    config = _fig_config(dcache_ports=ports)
    scalar, vector = _differential("sfilter", 8 * 8, config)
    # The Figure 19 metric itself (bank utilization inputs) must agree.
    assert scalar.counters["dcache0"].get("bank_conflicts", 0) == vector.counters[
        "dcache0"
    ].get("bank_conflicts", 0)


# -- Figure 20: texture acceleration ------------------------------------------------------


@pytest.mark.parametrize("mode", ["point", "bilinear", "trilinear"])
@pytest.mark.parametrize("use_hw", [True, False])
def test_fig20_texture_modes_bit_identical(mode, use_hw):
    config = _fig_config()

    def run(driver):
        kernel = hardware_texture_kernel(mode) if use_hw else software_texture_kernel(mode)
        device = VortexDevice(config, driver=driver)
        run = kernel.run(device, size=16 * 16)
        assert run.passed
        return run.report

    scalar = run("simxref")
    vector = run("simx")
    assert diff_execution_reports(scalar, vector) == []


# -- multicore + barriers -----------------------------------------------------------------


def test_multicore_global_barriers_bit_identical():
    _differential("sgemm", 8 * 8, _fig_config(num_cores=2))


def test_divergent_kernel_bit_identical():
    """bfs diverges (split/join) and communicates through memory flags."""
    _differential("bfs", 64, _fig_config())


# -- scheduler policies: identical to the oracle on every policy -------------------------


@pytest.mark.parametrize(
    "policy", ["greedy-then-oldest", "loose-round-robin", "cache-locality"]
)
def test_scheduler_policies_bit_identical_across_engines(policy):
    """The policy axis changes the schedule, not the agreement with the oracle."""
    config = _fig_config().with_scheduler_policy(policy)
    _differential("sgemm", 8 * 8, config)


# -- retry wall: port-limited configs through the batched + fast-forward path -------------


@pytest.mark.parametrize("kernel", ["sgemm", "sfilter"])
def test_port_limited_retry_wall_bit_identical(kernel):
    """1 port x 32 threads — the retry-storm regime the batched request path
    and the cycle fast-forward target — must stay bit-identical."""
    config = _fig_config(num_warps=4, num_threads=32, dcache_ports=1)
    _differential(kernel, 8 * 8, config)


# -- L2/L3 hierarchy: multi-level fills under the differential microscope -----------------


@pytest.mark.parametrize(
    "enable_l2,enable_l3", [(True, False), (True, True)], ids=["l2", "l2l3"]
)
def test_cache_hierarchy_bit_identical(enable_l2, enable_l3):
    config = _fig_config().with_cache_hierarchy(enable_l2=enable_l2, enable_l3=enable_l3)
    _, subject = _differential("sgemm", 8 * 8, config)
    counters = subject.counters
    assert "l2_0" in counters and counters["l2_0"].get("attempts", 0) > 0
    assert ("l3" in counters) == enable_l3


# -- one timing path: run() is the tick() loop, and the old knobs are gone ------------------


@pytest.mark.parametrize("kernel,size", [("sgemm", 8 * 8), ("saxpy", 128)])
@pytest.mark.parametrize("hierarchy", [False, True], ids=["l1", "l2l3"])
def test_run_equals_tick_loop(run_ticked, kernel, size, hierarchy):
    """The event-driven fast-forward in ``run()`` must never change a cycle
    or counter relative to advancing the same launch by ``tick()`` alone."""
    from repro.kernels import KERNELS

    config = _fig_config(num_warps=4, num_threads=32, dcache_ports=1)
    if hierarchy:
        config = config.with_cache_hierarchy(enable_l2=True, enable_l3=True)
    ticked = run_ticked(kernel, size, config).driver.processor

    device = VortexDevice(config, driver="simx")
    processor = device.driver.processor
    ticks = 0
    tick = processor.tick

    def counting_tick():
        nonlocal ticks
        ticks += 1
        tick()

    processor.tick = counting_tick
    run = KERNELS[kernel]().run(device, size=size)
    assert run.passed
    assert ticks < run.report.cycles, "run() should have fast-forwarded some window"
    assert run.report.cycles == ticked.cycle
    assert run.report.instructions == ticked.total_instructions
    assert run.report.thread_instructions == ticked.total_thread_instructions
    assert run.report.counters == ticked.counters()


@pytest.mark.parametrize("spec", ["simx:fastforward=off", "simx:requests=perlane"])
def test_removed_knobs_fail_at_parse_time(spec):
    from repro.runtime.registry import UnknownDriverOptionError, parse_driver_spec

    with pytest.raises(UnknownDriverOptionError) as excinfo:
        parse_driver_spec(spec)
    assert sorted(excinfo.value.valid) == ["trace", "trace_channels", "trace_file"]


def test_timing_engine_knob_and_report_tagging():
    """The engine knob is gone from every timing layer — a stale ``engine=``
    is a ``TypeError``, never accepted-and-ignored — and the report tag stays."""
    from repro.core.processor import TimingProcessor
    from repro.core.timing import TimingCore
    from repro.kernels import KERNELS

    config = _fig_config()
    device = VortexDevice(config, driver="simx")
    run = KERNELS["vecadd"]().run(device, size=64)
    assert run.passed
    assert run.report.engine == "timing-vector"
    processor = device.driver.processor
    assert not hasattr(processor, "engine") and not hasattr(processor.cores[0], "engine")
    with pytest.raises(TypeError, match="engine"):
        TimingProcessor(config, engine="scalar")
    with pytest.raises(TypeError, match="engine"):
        TimingCore(0, config, processor.memory, processor.memsys, engine="scalar")
