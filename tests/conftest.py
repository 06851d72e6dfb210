"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import Phase, settings

from repro.cache.hierarchy import MemorySubsystem
from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.core.core import SimtCore
from repro.core.processor import Processor, TimingProcessor
from repro.core.timing import TimingCore
from repro.kernels import KERNELS
from repro.mem.memory import MainMemory
from repro.runtime.device import VortexDevice
from repro.runtime.driver import FuncSimDriver
from repro.runtime.registry import register_driver
from repro.runtime.simx import SimxDriver

# -- Hypothesis profiles -------------------------------------------------------------------
# ``--hypothesis-profile=mutant`` for a seeded-defect run: a failing example
# is reported as drawn, not shrunk.  Shrinking reruns the per-thread oracle
# for every candidate program, which under a broken engine takes minutes.
# The default profile, and each test's own ``@settings``, stay as they are.
settings.register_profile(
    "mutant", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target]
)


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


# -- what funcsim's fast paths did -----------------------------------------------------------


@dataclass(frozen=True)
class BlockCall:
    """One call of a ``funcsim`` block: its warps, ``limit`` and length (body
    plus closing jump), the instructions it ran per warp, and the whole
    trips its trip summary ran first (None: the block has no summary)."""

    warps: int
    limit: int
    length: int
    executed: int
    trips: int | None


@dataclass
class FuncsimSpy:
    """Every block call of a ``funcsim`` run (:class:`BlockCall`), how many
    loop bodies got a trip summary (``built``), and the warp instructions
    ``Processor._round`` retired, by mnemonic (``rounds``)."""

    calls: list[BlockCall] = field(default_factory=list)
    built: int = 0
    rounds: Counter = field(default_factory=Counter)

    @property
    def summaries(self) -> list[BlockCall]:
        """The calls of blocks that have a trip summary."""
        return [call for call in self.calls if call.trips is not None]

    @property
    def trips(self) -> int:
        """Whole trips summarised, over every summary call."""
        return sum([call.trips for call in self.summaries])

    @property
    def declines(self) -> int:
        """Summary calls that ran nothing because ``limit`` held fewer than
        two trips."""
        return sum([not call.trips and call.limit < 2 * call.length for call in self.summaries])

    @property
    def by_limit(self) -> Counter:
        """Block calls by ``limit``."""
        return Counter([call.limit for call in self.calls])


@pytest.fixture
def funcsim_spy(monkeypatch) -> FuncsimSpy:
    """Records what ``funcsim`` ran where (:class:`FuncsimSpy`): wraps
    ``VectorWarpEmulator._build_block`` and ``_trip_summary`` (every block
    and summary built during the test) and ``VectorSimtCore.step_warp``
    (which only ``Processor._round`` calls on ``funcsim``)."""
    from repro.core.core import VectorSimtCore
    from repro.core.vector_emulator import VectorWarpEmulator

    spy = FuncsimSpy()
    build_block, trip_summary = VectorWarpEmulator._build_block, VectorWarpEmulator._trip_summary
    step_warp = VectorSimtCore.step_warp
    last: list[int | None] = [None]  # trips of the summary the current block call ran

    def spy_summary(self, block, body, branch):
        summary = trip_summary(self, block, body, branch)
        if summary is None:
            return None
        spy.built += 1

        def run(limit):
            last[0] = summary(limit)
            return last[0]

        return run

    def spy_block(self, pc, first, count):
        built = build_block(self, pc, first, count)
        if built is None:
            return None
        length, block = built

        def run(limit):
            last[0] = None
            executed = block(limit)
            spy.calls.append(BlockCall(count, limit, length, executed, last[0]))
            return executed

        return length, run

    def spy_step(self, warp):
        try:
            mnemonic = self.emulator.fetch(warp.pc).mnemonic
        except Exception:  # the step raises it
            mnemonic = None
        spy.rounds[mnemonic] += 1
        step_warp(self, warp)

    monkeypatch.setattr(VectorWarpEmulator, "_trip_summary", spy_summary)
    monkeypatch.setattr(VectorWarpEmulator, "_build_block", spy_block)
    monkeypatch.setattr(VectorSimtCore, "step_warp", spy_step)
    return spy


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
    them: after the clock moved, ahead of the level's own tick.  A
    ``MemorySubsystem`` ticks only its shared levels, so the test also ticks
    every L1 after it, as each core does, and gets their responses keyed
    ``("i" | "d", core_id)``.
    """

    def tick_component(component, fills=()):
        component.clock.now += 1
        for line_address in fills:
            component.fill(line_address)
        responses = component.tick()
        if not isinstance(component, MemorySubsystem):
            return responses
        l1s = [("i", component.icaches), ("d", component.dcaches)]
        return {
            (kind, core_id): got
            for kind, caches in l1s
            for core_id, cache in enumerate(caches)
            if (got := cache.tick())
        }

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
