"""The SIMX driver: cycle-level simulation (paper section 4.5).

SIMX is the driver the paper uses for design-space exploration beyond what
fits on the FPGA (e.g. the Figure 21 memory-scaling study); in this
reproduction it is also the driver behind every timing result (IPC,
bank-utilization and texture-acceleration experiments).
"""

from __future__ import annotations

from typing import Any

from repro.common.config import VortexConfig
# DEFAULT_MAX_CYCLES: the cycle budget of a launch whose options set none.
from repro.core.processor import DEFAULT_MAX_CYCLES as DEFAULT_MAX_CYCLES, TimingProcessor
from repro.mem.memory import MainMemory
from repro.runtime.driver import SimulationDriver
from repro.runtime.launch import LaunchOptions
from repro.trace.bus import TraceBus, TraceSink
from repro.trace.sinks import CsvSink, JsonlSink, MemorySink, VcdSink

#: ``trace=`` spec-option values and the sinks they build (``"mem"`` keeps
#: the events in ``driver.trace_sink.events`` for in-process analysis).
TRACE_MODES = ("off", "vcd", "csv", "jsonl", "mem")


def _build_trace_sink(mode: str, trace_file: str | None) -> TraceSink:
    """Build the sink for a ``trace=`` mode (file formats need ``trace_file``)."""
    if mode == "mem":
        if trace_file is not None:
            raise ValueError("trace=mem keeps events in memory; drop trace_file")
        return MemorySink()
    if trace_file is None:
        raise ValueError(f"trace={mode} writes a file; add trace_file=<path> to the spec")
    if mode == "vcd":
        return VcdSink(trace_file)
    if mode == "csv":
        return CsvSink(trace_file)
    return JsonlSink(trace_file)


class SimxDriver(SimulationDriver):
    """Runs kernels on the cycle-level multi-core processor.

    Issued warp instructions execute through the vectorized emulator's
    compiled whole-warp lane plans; ``tests/test_timing_differential.py``
    holds cycles, IPC and every performance counter identical to the same
    timing model driven by the per-thread reference emulator.

    Observability rides on three spec options (see ``repro.trace``):

    * ``trace`` — ``"off"`` (default), or a sink format: ``"vcd"``,
      ``"csv"``, ``"jsonl"`` (all need ``trace_file``) or ``"mem"``
      (events collected on ``driver.trace_sink.events``),
    * ``trace_file`` — output path for the file formats,
    * ``trace_channels`` — ``"+"``-separated channel filter
      (``trace_channels=scheduler+dcache``); default is every channel.

    The fast-forward emits synthesized skip/replay events, so the expanded
    event stream of a traced run equals that of a ``processor.tick()`` loop.
    """

    name = "simx"
    engine = "timing-vector"
    processor_cls = TimingProcessor

    def __init__(
        self,
        config: VortexConfig | None = None,
        memory: MainMemory | None = None,
        trace: str = "off",
        trace_file: str | None = None,
        trace_channels: str | None = None,
    ):
        if trace not in TRACE_MODES:
            raise ValueError(f"unknown trace mode {trace!r} (use one of {TRACE_MODES})")
        self.trace_sink: TraceSink | None = None
        self.trace_bus: TraceBus | None = None
        if trace != "off":
            self.trace_sink = _build_trace_sink(trace, trace_file)
            channels = tuple(trace_channels.split("+")) if trace_channels else None
            self.trace_bus = TraceBus([self.trace_sink], channels=channels)
        elif trace_file is not None or trace_channels is not None:
            raise ValueError("trace_file/trace_channels require a trace= mode")
        super().__init__(config, memory)

    def _new_processor(self) -> Any:
        return self.processor_cls(self.config, self.memory, trace=self.trace_bus)

    def _advance(self, entry_pc: int | None, options: LaunchOptions, pause_at: int | None) -> None:
        try:
            super()._advance(entry_pc, options, pause_at)
        finally:
            # Paused or raising too: a failing run's last events explain it.
            if self.trace_bus is not None:
                self.trace_bus.flush()
        if self.trace_bus is not None and self.processor.done:
            # Close file sinks once the launch has fully drained (VCD encodes
            # on close); a relaunch reopens them for append and the VCD is
            # re-encoded whole, so one file holds every launch.
            self.trace_bus.close()
