"""The command processor (AFU) and PCIe driver model.

On the FPGA platform the host talks to Vortex through OPAE: it DMAs data
into a shared staging area, the AFU copies it into the board's local
memory, MMIO registers start the kernel, and results travel back the same
way (paper sections 4.1 and 5.1).  This module models that protocol: MMIO
registers, bounded-bandwidth DMA transfers with byte accounting, and the
launch/complete handshake.  The simulation drivers sit underneath it, so an
application using :class:`VortexDevice` exercises the same host/device
protocol regardless of which simulator executes the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.common.perf import PerfCounters
from repro.mem.memory import MainMemory
from repro.runtime.launch import LaunchOptions


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
