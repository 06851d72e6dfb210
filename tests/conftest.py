"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.core.core import SimtCore
from repro.core.processor import Processor, TimingProcessor
from repro.core.timing import TimingCore
from repro.kernels import KERNELS
from repro.mem.memory import MainMemory
from repro.runtime.device import VortexDevice
from repro.runtime.funcsim import FuncSimDriver
from repro.runtime.registry import register_driver
from repro.runtime.simx import SimxDriver

# -- the per-thread oracle -----------------------------------------------------------------
# The scalar emulator classes the vector engine subclasses, wired into the
# same drivers through their class-attribute seams and registered — here
# only, never under ``src/`` — as ``simxref`` / ``funcsimref``.  A
# differential test runs a job on ``simx`` and on ``simxref`` and expects
# ``diff_execution_reports`` to come back empty.


class RefTimingCore(TimingCore):
    func_cls = SimtCore


class RefTimingProcessor(TimingProcessor):
    core_cls = RefTimingCore


class RefSimxDriver(SimxDriver):
    processor_cls = RefTimingProcessor


class RefFuncSimDriver(FuncSimDriver):
    processor_cls = Processor


register_driver("simxref", RefSimxDriver, options=("trace", "trace_file", "trace_channels"))
register_driver("funcsimref", RefFuncSimDriver, options=())


@pytest.fixture
def small_config() -> VortexConfig:
    """A small 4W-4T single-core configuration used across timing tests."""
    return VortexConfig(
        num_cores=1,
        dcache=CacheConfig(size=8 * 1024, num_banks=4, mshr_size=8),
        icache=CacheConfig(size=4 * 1024, num_banks=1),
        memory=MemoryConfig(latency=40, bandwidth=1),
    )


@pytest.fixture
def memory() -> MainMemory:
    return MainMemory()


@pytest.fixture
def funcsim_device(small_config) -> VortexDevice:
    """A device backed by the functional driver (fast, no timing)."""
    return VortexDevice(small_config, driver="funcsim")


@pytest.fixture
def simx_device(small_config) -> VortexDevice:
    """A device backed by the cycle-level driver."""
    return VortexDevice(small_config, driver="simx")


@pytest.fixture(scope="session")  # a pure function: Hypothesis tests may take it
def tick():
    """Drive a timing component built on its own through one device cycle.

    Components read the device clock and never advance it — only
    ``TimingProcessor`` does.  A cache, scratchpad, DRAM model or whole
    ``MemorySubsystem`` built alone holds a private clock, and the test
    stands in for the processor: ``tick(component)`` advances that clock one
    cycle and returns ``component.tick()``.  ``fills`` are line addresses
    handed to ``component.fill`` where ``MemorySubsystem.tick`` delivers
    them: after the clock moved, ahead of the level's own tick.
    """

    def tick_component(component, fills=()):
        component.clock.now += 1
        for line_address in fills:
            component.fill(line_address)
        return component.tick()

    return tick_component


@pytest.fixture
def run_ticked():
    """Launch a kernel by ``TimingProcessor.tick()`` alone.

    ``reset(entry)`` + ``while not done: tick()`` is the cycle-by-cycle
    reference that ``run()``'s event-driven fast-forward must equal in
    cycles, counters and expanded traces.  Returns the finished device.
    ``kernel`` is a registry name or a kernel class; passing ``device``
    relaunches on an existing device (warm caches) instead of a fresh one.
    """

    def run(kernel, size, config=None, driver: str = "simx", device=None) -> VortexDevice:
        device = device or VortexDevice(config, driver=driver)
        instance = KERNELS[kernel]() if isinstance(kernel, str) else kernel()
        program = instance.build_program()
        device.upload_program(program)
        context = instance.setup(device, size)
        processor = device.driver.processor
        processor.reset(program.entry)
        with np.errstate(all="ignore"):  # as TimingProcessor.run does for lane plans
            while not processor.done:
                processor.tick()
        if device.driver.trace_bus is not None:
            device.driver.trace_bus.flush()  # SimxDriver.run would have
        assert instance.verify(device, context)
        return device

    return run
