"""The SIMX driver: cycle-level simulation (paper section 4.5).

SIMX is the driver the paper uses for design-space exploration beyond what
fits on the FPGA (e.g. the Figure 21 memory-scaling study); in this
reproduction it is also the driver behind every timing result (IPC,
bank-utilization and texture-acceleration experiments).
"""

from __future__ import annotations

import time

from repro.common.config import VortexConfig
from repro.core.processor import TimingProcessor
from repro.mem.memory import MainMemory
from repro.runtime.checkpoint import make_envelope, open_envelope
from repro.runtime.launch import LaunchOptions, resolve_options
from repro.runtime.report import ExecutionReport
from repro.trace.bus import TraceBus, TraceSink
from repro.trace.sinks import CsvSink, JsonlSink, MemorySink, VcdSink

#: Default cycle budget when ``options`` sets none.
DEFAULT_MAX_CYCLES = 20_000_000

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


class SimxDriver:
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
    #: Processor model to instantiate; the tests' per-thread oracle substitutes its own.
    processor_cls = TimingProcessor

    def __init__(
        self,
        config: VortexConfig | None = None,
        memory: MainMemory | None = None,
        trace: str = "off",
        trace_file: str | None = None,
        trace_channels: str | None = None,
    ):
        self.config = config or VortexConfig()
        self.memory = memory if memory is not None else MainMemory()
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
        self.processor = self.processor_cls(self.config, self.memory, trace=self.trace_bus)

    def invalidate_decode_caches(self) -> None:
        """Drop all cached decodes/plans (a new program image was loaded)."""
        for core in self.processor.cores:
            core.invalidate_caches()

    # -- checkpoint/restore ------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when the current launch has run to completion (and drained)."""
        return self.processor.done

    def checkpoint(self) -> dict:
        """A versioned envelope holding the full simulation state.

        Taken at a cycle boundary, so every in-flight cache/DRAM transaction
        is at a well-defined point; a restored run continues cycle- and
        counter-identically.
        """
        return make_envelope(
            kind=self.name,
            config=self.config,
            state={"processor": self.processor.snapshot()},
        )

    def restore(self, envelope: dict) -> None:
        """Restore a :meth:`checkpoint` envelope (validates format + config)."""
        state = open_envelope(
            envelope, kind=self.name, config=self.config, keys=("processor",)
        )
        self.processor.restore(state["processor"])

    def run(
        self,
        entry_pc: int | None,
        options: LaunchOptions | None = None,
        *,
        stop_cycle: int | None = None,
        resume: bool = False,
    ) -> ExecutionReport:
        """Execute the kernel at ``entry_pc`` to completion.

        ``options`` is the uniform :class:`LaunchOptions` record:
        ``max_cycles`` bounds the cycles and ``max_instructions`` the retired
        warp instructions; both budgets raise the typed
        :class:`~repro.core.emulator.SimulationLimitExceeded`.

        ``stop_cycle`` pauses the simulation at that cycle boundary;
        ``resume=True`` continues a paused (or checkpoint-restored) launch
        instead of resetting.  The cycle counter and every performance
        counter carry across pauses, so a chunked run reports exactly what
        the uninterrupted run would.
        """
        options = resolve_options(options)
        start = time.perf_counter()
        try:
            cycles = self.processor.run(
                None if resume else entry_pc,
                max_cycles=options.max_cycles or DEFAULT_MAX_CYCLES,
                max_instructions=options.max_instructions,
                stop_cycle=stop_cycle,
            )
        finally:
            # Paused or raising too: a failing run's last events explain it.
            if self.trace_bus is not None:
                self.trace_bus.flush()
        wall_seconds = time.perf_counter() - start
        if self.trace_bus is not None and self.processor.done:
            # Close file sinks once the launch has fully drained (VCD encodes
            # on close); a relaunch reopens them for append and the VCD is
            # re-encoded whole, so one file holds every launch.
            self.trace_bus.close()
        return ExecutionReport(
            driver=self.name,
            cycles=cycles,
            instructions=self.processor.total_instructions,
            thread_instructions=self.processor.total_thread_instructions,
            counters=self.processor.counters(),
            wall_seconds=wall_seconds,
            engine="timing-vector",
        )
