"""The command processor (AFU) and PCIe driver model, and the simulation
driver underneath it.

On the FPGA platform the host talks to Vortex through OPAE: it DMAs data
into a shared staging area, the AFU copies it into the board's local
memory, MMIO registers start the kernel, and results travel back the same
way (paper sections 4.1 and 5.1).  This module models that protocol: MMIO
registers, bounded-bandwidth DMA transfers with byte accounting, and the
launch/complete handshake.  The simulation driver sits underneath it, so
an application using :class:`VortexDevice` exercises the same host/device
protocol regardless of which simulator executes the kernel.

:class:`SimulationDriver` is that driver: one processor model over device
memory with one launch lifecycle (run, pause, resume, checkpoint, report).
:class:`FuncSimDriver` runs the functional model (mirroring the paper's
RTLSIM/ASE functional paths: fast execution that validates kernels and
produces reference outputs); :class:`~repro.runtime.simx.SimxDriver` the
cycle-level one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Any

from repro.common.config import VortexConfig
from repro.common.perf import PerfCounters
from repro.core.processor import VectorProcessor
from repro.mem.memory import MainMemory
from repro.runtime.checkpoint import make_envelope, open_envelope
from repro.runtime.launch import LaunchOptions, resolve_options
from repro.runtime.report import ExecutionReport


class DriverError(Exception):
    """Raised on protocol violations (bad MMIO sequence, transfer overflow…)."""


class Mmio(IntEnum):
    """MMIO register offsets exposed by the AFU."""

    STATUS = 0x00
    CONTROL = 0x08
    KERNEL_PC = 0x10
    ARG_ADDRESS = 0x18
    DMA_HOST_ADDR = 0x20
    DMA_DEVICE_ADDR = 0x28
    DMA_SIZE = 0x30
    CYCLE_COUNT = 0x38
    INSTR_COUNT = 0x40


class Status(IntEnum):
    """Values of the STATUS register."""

    IDLE = 0
    RUNNING = 1
    DONE = 2
    ERROR = 3


#: Effective PCIe gen3 x8 payload bandwidth used for transfer-time estimates.
PCIE_BYTES_PER_SECOND = 6.0e9


@dataclass
class TransferRecord:
    """Accounting for one DMA transfer."""

    direction: str  # "h2d" | "d2h"
    device_address: int
    size: int


class CommandProcessor:
    """The AFU: MMIO registers, DMA engine, kernel launch handshake."""

    def __init__(self, memory: MainMemory):
        self.memory = memory
        self._registers: dict[int, int] = {int(reg): 0 for reg in Mmio}
        self._registers[int(Mmio.STATUS)] = int(Status.IDLE)
        self.transfers: list = []
        self.perf = PerfCounters("afu")

    # -- MMIO -----------------------------------------------------------------------

    def mmio_read(self, offset: int) -> int:
        """Read an MMIO register."""
        if offset not in self._registers:
            raise DriverError(f"MMIO read from unknown register {offset:#x}")
        return self._registers[offset]

    def mmio_write(self, offset: int, value: int) -> None:
        """Write an MMIO register."""
        if offset not in self._registers:
            raise DriverError(f"MMIO write to unknown register {offset:#x}")
        self._registers[offset] = value

    @property
    def status(self) -> Status:
        return Status(self._registers[int(Mmio.STATUS)])

    # -- DMA -------------------------------------------------------------------------

    def dma_host_to_device(self, device_address: int, data: bytes) -> None:
        """Copy host data into device memory (the CCI-P staging path)."""
        if self.status == Status.RUNNING:
            raise DriverError("DMA attempted while a kernel is running")
        self.memory.write_bytes(device_address, data)
        self.transfers.append(
            TransferRecord(direction="h2d", device_address=device_address, size=len(data))
        )
        self.perf.incr("h2d_bytes", len(data))

    def dma_device_to_host(self, device_address: int, size: int) -> bytes:
        """Copy device memory back to the host."""
        if self.status == Status.RUNNING:
            raise DriverError("DMA attempted while a kernel is running")
        data = self.memory.read_bytes(device_address, size)
        self.transfers.append(
            TransferRecord(direction="d2h", device_address=device_address, size=size)
        )
        self.perf.incr("d2h_bytes", size)
        return data

    def estimated_transfer_seconds(self) -> float:
        """Wall-clock estimate of all DMA traffic at PCIe gen3 x8 rates."""
        total = self.perf.get("h2d_bytes") + self.perf.get("d2h_bytes")
        return total / PCIE_BYTES_PER_SECOND

    # -- kernel launch -----------------------------------------------------------------

    def launch(
        self,
        sim_driver,
        entry_pc: int,
        arg_address: int | None = None,
        options: LaunchOptions | None = None,
    ):
        """Run a kernel through ``sim_driver`` and update the MMIO state.

        ``options`` (a :class:`LaunchOptions`) is forwarded to the driver's
        ``run`` untouched; its ``arg_address`` field is published through the
        ``ARG_ADDRESS`` MMIO register when the explicit argument is absent.
        """
        if arg_address is None and options is not None:
            arg_address = options.arg_address
        self.mmio_write(int(Mmio.KERNEL_PC), entry_pc)
        if arg_address is not None:
            self.mmio_write(int(Mmio.ARG_ADDRESS), arg_address)
        self.mmio_write(int(Mmio.STATUS), int(Status.RUNNING))
        try:
            report = sim_driver.run(entry_pc, options=options)
        except Exception:
            self.mmio_write(int(Mmio.STATUS), int(Status.ERROR))
            raise
        self.mmio_write(int(Mmio.STATUS), int(Status.DONE))
        self.mmio_write(int(Mmio.CYCLE_COUNT), report.cycles)
        self.mmio_write(int(Mmio.INSTR_COUNT), report.instructions)
        self.perf.incr("launches")
        return report


class SimulationDriver:
    """Runs kernels on one processor model (``processor_cls``) over device memory.

    A subclass names the backend (``name``, and ``engine`` in reports) and
    picks the model; ``processor_cls`` is also the seam the tests'
    per-thread oracles plug into.  The processor keeps the launch marks, so
    budgets and the pause point count from the launch start however a
    launch is paused, resumed or restored, on every model.
    """

    name: str
    engine: str
    processor_cls: Any

    def __init__(self, config: VortexConfig | None = None, memory: MainMemory | None = None):
        self.config = config or VortexConfig()
        self.memory = memory if memory is not None else MainMemory()
        self.processor = self._new_processor()

    def _new_processor(self) -> Any:
        return self.processor_cls(self.config, self.memory)

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

        Taken where a run pauses — a cycle boundary on the cycle-level
        model, a round boundary on the functional one — so a restored run
        continues counter-identically.
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
        pause_at: int | None = None,
        resume: bool = False,
    ) -> ExecutionReport:
        """Execute the kernel at ``entry_pc`` to completion.

        ``options`` is the uniform :class:`LaunchOptions` record:
        ``max_instructions`` bounds the retired warp instructions on every
        model and ``max_cycles`` the cycles on the cycle-level one; both
        raise the typed :class:`~repro.core.emulator.SimulationLimitExceeded`.

        ``pause_at`` pauses the launch once its progress reaches that many
        units — cycles on the cycle-level model, retired warp instructions
        (at a round boundary) on the functional one.  ``resume=True``
        continues a paused (or checkpoint-restored) launch instead of
        resetting.  Budgets, ``pause_at`` and the report count from the
        launch start, whatever ran on the device before, so a chunked run
        raises and reports exactly what the uninterrupted run would.
        """
        options = resolve_options(options)
        start = time.perf_counter()
        self._advance(None if resume else entry_pc, options, pause_at)
        wall_seconds = time.perf_counter() - start
        processor = self.processor
        return ExecutionReport(
            driver=self.name,
            cycles=processor.cycle,
            instructions=processor.total_instructions,
            thread_instructions=processor.total_thread_instructions,
            counters=processor.counters(),
            wall_seconds=wall_seconds,
            engine=self.engine,
        )

    def _advance(self, entry_pc: int | None, options: LaunchOptions, pause_at: int | None) -> None:
        self.processor.run(
            entry_pc,
            max_cycles=options.max_cycles,
            max_instructions=options.max_instructions,
            pause_at=pause_at,
        )


class FuncSimDriver(SimulationDriver):
    """Runs kernels on the functional multi-core processor (no timing).

    Kernels execute on :class:`~repro.core.processor.VectorProcessor`: each
    warp instruction runs over all active lanes as a handful of numpy
    operations.  The per-thread :class:`~repro.core.processor.Processor` it
    subclasses is the oracle the differential tests hold it bit-identical to
    (registers, memory, retired-instruction counts).
    """

    name = "funcsim"
    engine = "vector"
    processor_cls = VectorProcessor
