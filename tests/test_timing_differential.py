"""Differential tests: the vectorized SIMX timing engine vs the scalar reference.

``TimingCore(engine="vector")`` executes issued warps through the vectorized
emulator's compiled whole-warp lane plans; ``engine="scalar"`` steps the
per-thread reference emulator.  The timing model (scheduler, scoreboard,
latencies, caches, MSHRs) is shared, so the two engines must report
**bit-identical** cycles, instruction counts and every performance counter
on every configuration the paper's figures sweep.

The Figure 14 (core design points), Figure 19 (virtual multi-port caches)
and multicore/divergence scenarios run through the first-class sweep API —
``Session.run_differential`` — which is exactly the "run on both engines and
diff every counter" check these tests used to hand-roll per scenario.  The
texture scenarios build ad-hoc kernels, so they diff reports directly.
"""

from __future__ import annotations

import pytest

from repro.common.config import CORE_DESIGN_POINTS, CacheConfig, MemoryConfig, VortexConfig
from repro.engine.session import KernelJob, Session, diff_execution_reports
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
    """One job through the sweep API; returns the per-job differential result."""
    report = Session(executor="serial").run_differential(
        [KernelJob(kernel=kernel, size=size, config=config)]
    )
    (result,) = report.results
    assert result.ok, (result.scalar.error, result.vector.error)
    assert result.identical_counters, result.mismatches
    assert report.identical_counters
    return result


# -- Figure 14: core design-space points ------------------------------------------------


@pytest.mark.parametrize("label", list(CORE_DESIGN_POINTS))
def test_fig14_design_points_bit_identical(label):
    warps, threads = CORE_DESIGN_POINTS[label]
    config = _fig_config(num_warps=warps, num_threads=threads)
    result = _differential("sgemm", 8 * 8, config)
    assert result.scalar.report.engine == "timing-scalar"
    assert result.vector.report.engine == "timing-vector"


@pytest.mark.parametrize("kernel,size", [("vecadd", 128), ("saxpy", 128), ("nearn", 128)])
def test_fig14_kernels_bit_identical(kernel, size):
    _differential(kernel, size, _fig_config())


# -- Figure 19: virtual multi-port caches ------------------------------------------------


@pytest.mark.parametrize("ports", [1, 2, 4])
def test_fig19_port_counts_bit_identical(ports):
    config = _fig_config(dcache_ports=ports)
    result = _differential("sfilter", 8 * 8, config)
    # The Figure 19 metric itself (bank utilization inputs) must agree.
    scalar, vector = result.scalar.report, result.vector.report
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

    scalar = run("simx:engine=scalar")
    vector = run("simx")
    assert diff_execution_reports(scalar, vector) == []


# -- multicore + barriers -----------------------------------------------------------------


def test_multicore_global_barriers_bit_identical():
    _differential("sgemm", 8 * 8, _fig_config(num_cores=2))


def test_divergent_kernel_bit_identical():
    """bfs diverges (split/join) and communicates through memory flags."""
    _differential("bfs", 64, _fig_config())


# -- scheduler policies: identical across engines on every policy -------------------------


@pytest.mark.parametrize(
    "policy", ["greedy-then-oldest", "loose-round-robin", "cache-locality"]
)
def test_scheduler_policies_bit_identical_across_engines(policy):
    """The policy axis changes the schedule, not the engines' agreement."""
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
    result = _differential("sgemm", 8 * 8, config)
    counters = result.vector.report.counters
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
    """The driver knob is reachable via the spec string and via kwargs."""
    from repro.kernels import KERNELS
    from repro.runtime.simx import SimxDriver

    config = _fig_config()

    def run(driver):
        device = VortexDevice(config, driver=driver)
        run = KERNELS["vecadd"]().run(device, size=64)
        assert run.passed
        return run.report

    assert run("simx:engine=scalar").engine == "timing-scalar"
    assert run("simx").engine == "timing-vector"
    driver = SimxDriver(config, engine="scalar")
    assert driver.processor.cores[0].engine == "scalar"
    with pytest.raises(ValueError):
        SimxDriver(config, engine="warp")
