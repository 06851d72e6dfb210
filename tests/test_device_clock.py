"""One device clock: every timing component reads it, only the processor
writes it, and a relaunch is a later window of the same time axis."""

import ast
from pathlib import Path

import pytest
from test_golden_counters import MixedSharedGlobalKernel, _small

import repro
from repro.analysis.rules import iter_functions
from repro.common.config import MemoryConfig, VortexConfig
from repro.core.processor import TimingProcessor
from repro.isa.builder import ProgramBuilder
from repro.isa.csr import CSR
from repro.isa.registers import Reg
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice
from repro.runtime.launch import LaunchOptions
from repro.trace import CHANNELS, expand_skips

# -- one clock, one writer -------------------------------------------------------------------


def test_every_component_holds_the_processors_clock():
    config = VortexConfig(num_cores=2).with_cache_hierarchy(enable_l2=True, enable_l3=True)
    processor = TimingProcessor(config)
    memsys = processor.memsys
    holders = [memsys, memsys.dram, memsys.l3, *memsys.l2, *memsys.icaches, *memsys.dcaches]
    for core in processor.cores:
        holders += [core, core.smem, core.func.csr]
    assert len(holders) == 3 + len(memsys.l2) + 2 * 2 + 3 * 2 and None not in holders
    assert all(holder.clock is processor.clock for holder in holders)


def test_only_the_processor_writes_the_clock():
    """Every store to a ``.now`` attribute under ``src/``: the clock's
    constructor, and the processor's ``tick``, ``_skip_idle`` and ``restore``."""
    root = Path(repro.__file__).parent
    writers = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> innermost enclosing function (nested ones come later)
        for qualname, func in iter_functions(tree):
            owner.update((id(node), qualname) for node in ast.walk(func))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "now"
                and isinstance(node.ctx, ast.Store)
            ):
                writers.add(f"{path.relative_to(root)}:{owner.get(id(node), '<module>')}")
    assert writers == {
        "common/clock.py:DeviceClock.__init__",
        "core/processor.py:TimingProcessor.tick",
        "core/processor.py:TimingProcessor._skip_idle",
        "core/processor.py:TimingProcessor.restore",
    }


def _store_cycle_csr_program():
    """``csrr t0, cycle`` as the first instruction, stored to 0x4000."""
    asm = ProgramBuilder(base=0x8000_0000)
    asm.csr_read(Reg.t0, CSR.CYCLE)
    asm.li(Reg.t1, 0x4000)
    asm.sw(Reg.t0, 0, Reg.t1)
    asm.li(Reg.t0, 0)
    asm.tmc(Reg.t0)
    return asm.assemble()


def test_cycle_csr_reads_the_device_clock_across_launches():
    """``CSR.CYCLE`` is device-lifetime: on a second launch a kernel reads the
    device cycle its ``csrr`` issued in, not a launch-relative count — and 0
    under the functional driver, whose clock nobody advances."""
    program = _store_cycle_csr_program()
    device = VortexDevice(VortexConfig(), driver="simx:trace=mem")
    device.upload_program(program)
    first = device.launch(program.entry)
    seen = len(device.driver.trace_sink.events)
    device.launch(program.entry)
    (issue,) = [
        event
        for event in device.driver.trace_sink.events[seen:]
        if event.kind == "issue" and event.payload["pc"] == program.base
    ]
    assert device.memory.read_word(0x4000) == issue.cycle > first.cycles

    functional = VortexDevice(VortexConfig(), driver="funcsim")
    functional.upload_program(program)
    functional.launch(program.entry)
    functional.launch(program.entry)
    assert functional.memory.read_word(0x4000) == 0


# -- a relaunch report counts one launch -----------------------------------------------------


@pytest.mark.parametrize("driver", ["simx", "funcsim"])
def test_relaunch_report_counts_one_launch(driver):
    """Cycles, instructions and thread-instructions of a report all count from
    the start of its launch — so the same kernel reports the same instruction
    counts every time, the same IPC once the caches are warm, and the
    instruction budget is not charged what earlier launches retired."""
    device = VortexDevice(VortexConfig(), driver=driver)
    reports = [KERNELS["vecadd"]().run(device, size=64).report for _ in range(3)]
    first = reports[0]
    assert first.instructions > 0 and first.thread_instructions > first.instructions
    for report in reports[1:]:
        assert report.instructions == first.instructions
        assert report.thread_instructions == first.thread_instructions
    if driver == "simx":
        assert reports[1].cycles == reports[2].cycles < first.cycles
        assert reports[1].ipc == reports[2].ipc > first.ipc
        # ``counters`` stay hardware counters: they run for the life of the device.
        assert reports[2].counters["core0"]["instructions"] == 3 * first.instructions
        assert reports[2].counters["core0"]["cycles"] == sum(r.cycles for r in reports)
    budget = LaunchOptions(max_instructions=first.instructions + 1)
    assert KERNELS["vecadd"]().run(device, size=64, options=budget).passed


# -- one time axis on a relaunch --------------------------------------------------------------


class MixedBarrierKernel(MixedSharedGlobalKernel):
    """The mixed scratchpad/global body behind a core-local barrier: with a
    task count that fills every wavefront, each trip all of them meet at
    barrier 0 first — one scenario that fires every trace channel."""

    name = "mixed_smem_global_bar"

    def emit_body(self, asm: ProgramBuilder) -> None:
        asm.li(Reg.t5, 0)
        asm.csr_read(Reg.t6, CSR.NUM_WARPS)
        asm.bar(Reg.t5, Reg.t6)
        super().emit_body(asm)


@pytest.mark.parametrize(
    "kernel_factory,size,config,channels",
    [
        pytest.param(
            MixedBarrierKernel, 64,
            _small().with_cache_hierarchy(enable_l2=True, enable_l3=True), set(CHANNELS),
            id="all_channels",
        ),
        # a four-entry DRAM queue: the fast-forward replays write-refusal storms
        pytest.param(
            KERNELS["saxpy"], 32,
            VortexConfig(
                memory=MemoryConfig(latency=200, bandwidth=1, request_queue_size=4)
            ).with_warps_threads(2, 8),
            {"dcache"}, id="store_storm",
        ),
    ],
)
def test_relaunch_events_lie_on_one_time_axis(
    run_ticked, kernel_factory, size, config, channels
):
    """Every component stamps its events with the device clock, so the events
    of launch *k* lie in launch *k*'s window ``(launch_start, launch_start +
    cycles]`` on every channel, the windows follow each other, and the
    fast-forwarded stream of a relaunch expands to the ``reset`` + ``tick()``
    twin's."""
    fast = VortexDevice(config, driver="simx:trace=mem")
    ticked = VortexDevice(config, driver="simx:trace=mem")
    end, seen, skips = 0, set(), 0
    for launch in range(3):
        streams = []
        for device in (fast, ticked):
            sink = device.driver.trace_sink
            before = len(sink.events)
            if device is fast or launch == 0:
                run = kernel_factory().run(device, size=size)
                assert run.passed
            else:
                run_ticked(kernel_factory, size, device=device)
            streams.append(sink.events[before:])
        events, reference = streams
        start = fast.driver.processor.launch_start
        assert start == ticked.driver.processor.launch_start == end  # windows abut
        end = start + run.report.cycles
        assert events and all(start < event.cycle <= end for event in events)
        assert expand_skips(events) == expand_skips(reference)
        seen |= {event.channel for event in events}
        skips += launch and sum(event.kind == "skip" for event in events)
    assert seen >= channels
    assert skips, "the relaunches should have fast-forwarded some window"
