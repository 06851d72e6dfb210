"""The functional simulation driver (instruction-level, no timing).

Mirrors the role of the paper's RTLSIM/ASE functional paths: fast
execution used to validate kernels and produce reference outputs that the
cycle-level SIMX driver is checked against.

Kernels execute on :class:`~repro.core.processor.VectorProcessor`: each
warp instruction runs over all active lanes as a handful of numpy
operations.  The per-thread :class:`~repro.core.processor.Processor` it
subclasses is the oracle the differential tests hold it bit-identical to
(registers, memory, retired-instruction counts).
"""

from __future__ import annotations

import time

from repro.common.config import VortexConfig
from repro.core.processor import VectorProcessor
from repro.mem.memory import MainMemory
from repro.runtime.checkpoint import make_envelope, open_envelope
from repro.runtime.launch import LaunchOptions, resolve_options
from repro.runtime.report import ExecutionReport

#: Default instruction budget when ``options`` sets none.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


class FuncSimDriver:
    """Runs kernels on the functional multi-core processor."""

    name = "funcsim"
    #: Processor model to instantiate; the tests' per-thread oracle substitutes its own.
    processor_cls = VectorProcessor

    def __init__(self, config: VortexConfig | None = None, memory: MainMemory | None = None):
        self.config = config or VortexConfig()
        self.memory = memory if memory is not None else MainMemory()
        self.processor = self.processor_cls(self.config, self.memory)
        #: Instructions executed by the current (possibly paused) launch, and
        #: the device-lifetime thread-instruction total when it started.
        self._run_instructions = 0
        self._launch_thread_instructions = 0

    def invalidate_decode_caches(self) -> None:
        """Drop all cached decodes/plans (a new program image was loaded)."""
        for core in self.processor.cores:
            core.emulator.invalidate_decode_cache()

    # -- checkpoint/restore ------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when the current launch has run to completion."""
        return self.processor.done

    def checkpoint(self) -> dict:
        """A versioned envelope holding the full simulation state."""
        return make_envelope(
            kind=self.name,
            config=self.config,
            state={
                "processor": self.processor.snapshot(),
                "run_instructions": self._run_instructions,
                "launch_thread_instructions": self._launch_thread_instructions,
            },
        )

    def restore(self, envelope: dict) -> None:
        """Restore a :meth:`checkpoint` envelope (validates format + config)."""
        state = open_envelope(
            envelope,
            kind=self.name,
            config=self.config,
            keys=("processor", "run_instructions", "launch_thread_instructions"),
        )
        self.processor.restore(state["processor"])
        self._run_instructions = state["run_instructions"]
        self._launch_thread_instructions = state["launch_thread_instructions"]

    def _thread_instructions(self) -> int:
        """Thread-instructions retired over the life of the device."""
        return sum(core.perf.get("thread_instructions") for core in self.processor.cores)

    def run(
        self,
        entry_pc: int | None,
        options: LaunchOptions | None = None,
        *,
        stop_after_instructions: int | None = None,
        resume: bool = False,
    ) -> ExecutionReport:
        """Execute the kernel at ``entry_pc`` to completion.

        ``options`` is the uniform :class:`LaunchOptions` record;
        ``max_instructions`` bounds the retired warp instructions and
        ``max_cycles`` is ignored here — the functional driver does not
        model time.

        ``stop_after_instructions`` pauses the launch at a scheduling-round
        boundary once that many instructions have executed; ``resume=True``
        continues a paused (or checkpoint-restored) launch instead of
        resetting, and the report's instruction counts stay cumulative over
        the whole logical launch — bit-identical to an uninterrupted run —
        and count from its start, whatever ran on the device before.
        """
        options = resolve_options(options)
        start = time.perf_counter()
        if not resume:
            self._run_instructions = 0
            self._launch_thread_instructions = self._thread_instructions()
        executed = self.processor.run(
            None if resume else entry_pc,
            max_instructions=options.max_instructions or DEFAULT_MAX_INSTRUCTIONS,
            stop_after_instructions=stop_after_instructions,
        )
        self._run_instructions += executed
        wall_seconds = time.perf_counter() - start
        return ExecutionReport(
            driver=self.name,
            cycles=0,
            instructions=self._run_instructions,
            thread_instructions=self._thread_instructions() - self._launch_thread_instructions,
            counters=self.processor.counters(),
            wall_seconds=wall_seconds,
            engine="vector",
        )
