"""``VortexDevice`` — the public host-side API.

A device bundles device memory, the command processor (AFU), a buffer
allocator and one simulation driver behind the single facade application
code and the benchmark harness use:

.. code-block:: python

    device = VortexDevice(config, driver="simx")             # spec string
    device = VortexDevice(config, driver="simx:trace=mem")   # ... with options
    device = VortexDevice(config, driver=DriverSpec("funcsim"))
    device.upload_program(program)
    buffer = device.alloc(1024)
    buffer.write(np.arange(256, dtype=np.uint32))
    report = device.launch(program.entry)
    result = buffer.read(np.uint32)

Driver selection goes through the spec registry
(:mod:`repro.runtime.registry`): strings are parsed into a
:class:`DriverSpec`, and unknown simulators/options raise with the
available ones listed.  Launch parameters are the uniform
:class:`~repro.runtime.launch.LaunchOptions` record every driver accepts.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.common.config import VortexConfig
from repro.isa.builder import Program
from repro.mem.memory import MainMemory
from repro.runtime.buffer import BufferAllocator, DeviceBuffer
from repro.runtime.checkpoint import make_envelope, open_envelope
from repro.runtime.driver import CommandProcessor
from repro.runtime.launch import LaunchOptions
from repro.runtime.registry import DriverSpec, create_driver, parse_driver_spec
from repro.runtime.report import ExecutionReport

#: Fixed device address holding the pointer to the kernel argument block.
KERNEL_ARG_PTR_ADDR = 0x0FFF_F000


class VortexDevice:
    """One Vortex device instance (memory + AFU + simulator driver)."""

    def __init__(
        self,
        config: VortexConfig | None = None,
        driver: str | DriverSpec | object = "simx",
    ):
        self.config = config or VortexConfig()
        if isinstance(driver, (str, DriverSpec)):
            self.driver_spec = parse_driver_spec(driver)
            self.memory = MainMemory()
            self.driver = create_driver(self.driver_spec, self.config, self.memory)
        else:
            # Pre-constructed driver instance: adopt its memory so the AFU
            # DMAs into the same pages the simulation reads — a driver built
            # with its own MainMemory used to silently simulate on memory
            # the host never wrote.
            self.driver = driver
            driver_memory = getattr(driver, "memory", None)
            self.memory = driver_memory if driver_memory is not None else MainMemory()
            self.driver_spec = DriverSpec(getattr(driver, "name", type(driver).__name__))
        self.afu = CommandProcessor(self.memory)
        self.allocator = BufferAllocator()
        self.program: Program | None = None

    # -- program management ----------------------------------------------------------

    def upload_program(self, program: Program) -> None:
        """Copy a kernel image into device memory through the AFU.

        Loading a new image invalidates the driver's decode caches so a
        program loaded over a previous one at the same base is never
        executed from stale decodes.
        """
        self.afu.dma_host_to_device(program.base, program.to_bytes())
        invalidate = getattr(self.driver, "invalidate_decode_caches", None)
        if invalidate is not None:
            invalidate()
        self.program = program

    # -- buffers -----------------------------------------------------------------------

    def alloc(self, size: int, alignment: int = 64) -> DeviceBuffer:
        """Allocate a device buffer."""
        address = self.allocator.allocate(size, alignment)
        return DeviceBuffer(device=self, address=address, size=size)

    def alloc_array(self, array: np.ndarray) -> DeviceBuffer:
        """Allocate a buffer sized for ``array`` and copy it in."""
        buffer = self.alloc(array.nbytes)
        buffer.write(array)
        return buffer

    def write_kernel_args(self, words) -> int:
        """Write the kernel argument block and publish its address.

        The argument block is placed in a dedicated buffer; its device
        address is stored at :data:`KERNEL_ARG_PTR_ADDR`, where the
        device-side runtime's startup code reads it.
        """
        words = list(words)
        block = self.alloc(max(len(words), 1) * 4)
        block.write_words(words)
        self.memory.write_word(KERNEL_ARG_PTR_ADDR, block.address)
        return block.address

    # -- execution ------------------------------------------------------------------------

    def launch(
        self,
        entry_pc: int | None = None,
        arg_address: int | None = None,
        options: LaunchOptions | None = None,
    ) -> ExecutionReport:
        """Launch the uploaded kernel and wait for completion.

        The entry point resolves in precedence order: the explicit
        ``entry_pc`` argument, then ``options.entry_pc``, then the uploaded
        program's entry.  ``options`` travels through the AFU to the
        driver's ``run`` unchanged, so cycle/instruction budgets behave
        identically on every backend.
        """
        options = options if options is not None else LaunchOptions()
        if arg_address is not None:
            options = replace(options, arg_address=arg_address)
        return self.afu.launch(self.driver, self._entry_pc(entry_pc, options), options=options)

    def _entry_pc(self, entry_pc: int | None, options: LaunchOptions | None) -> int:
        """The launch precedence: argument, ``options.entry_pc``, uploaded program."""
        if entry_pc is None and options is not None:
            entry_pc = options.entry_pc
        if entry_pc is None:
            if self.program is None:
                raise ValueError("no program uploaded and no entry PC given")
            entry_pc = self.program.entry
        return entry_pc

    # -- checkpoint/restore -----------------------------------------------------------------

    def checkpoint(self) -> dict:
        """A versioned envelope holding the complete device state.

        Bundles the driver's own checkpoint (memory image + simulator
        state), the buffer allocator's bump pointer and the uploaded
        program's metadata.  The envelope is plain picklable data: it can
        cross process boundaries or be written to disk, and
        :meth:`restore` validates its format version and config fingerprint
        before touching any state.
        """
        driver_checkpoint = getattr(self.driver, "checkpoint", None)
        if driver_checkpoint is None:
            raise TypeError(
                f"driver {self.driver_name!r} does not support checkpointing"
            )
        program = self.program
        return make_envelope(
            kind="device",
            config=self.config,
            state={
                "driver": driver_checkpoint(),
                "allocator": self.allocator.snapshot(),
                "program": None
                if program is None
                else {
                    "base": program.base,
                    "words": list(program.words),
                    "symbols": dict(program.symbols),
                    "entry": program.entry,
                },
            },
        )

    def restore(self, envelope: dict) -> None:
        """Restore a :meth:`checkpoint` envelope taken from an identically
        configured device.

        The program image is *not* re-uploaded: its bytes are already part
        of the restored memory image, and the driver's restore invalidates
        every decode/plan cache.  Only the :class:`Program` metadata (entry
        point, symbols) is rebuilt so later ``launch()`` calls resolve.
        """
        state = open_envelope(
            envelope,
            kind="device",
            config=self.config,
            keys=("driver", "allocator", "program"),
        )
        driver_restore = getattr(self.driver, "restore", None)
        if driver_restore is None:
            raise TypeError(f"driver {self.driver_name!r} does not support restore")
        driver_restore(state["driver"])
        self.allocator.restore(state["allocator"])
        program = state["program"]
        self.program = (
            None
            if program is None
            else Program(
                base=program["base"],
                words=list(program["words"]),
                symbols=dict(program["symbols"]),
                entry=program["entry"],
            )
        )

    def launch_chunk(
        self,
        units: int,
        entry_pc: int | None = None,
        options: LaunchOptions | None = None,
        *,
        resume: bool = False,
    ) -> ExecutionReport:
        """Launch (or resume) the kernel and pause after ``units`` of progress.

        ``units`` is in the driver's natural progress unit — cycles on the
        cycle-level driver, instructions on the functional one (the only
        place that tells the families apart).  ``self.driver.done`` says
        whether the kernel finished inside the chunk; a paused (or
        checkpoint-restored) launch continues with ``resume=True``.
        """
        if not resume:
            entry_pc = self._entry_pc(entry_pc, options)
        processor = self.driver.processor
        if hasattr(processor, "cycle"):
            stop = {"stop_cycle": (processor.cycle if resume else 0) + units}
        else:
            stop = {"stop_after_instructions": units}
        return self.driver.run(entry_pc, options=options, resume=resume, **stop)

    def launch_resumable(
        self,
        entry_pc: int | None = None,
        options: LaunchOptions | None = None,
        *,
        checkpoint_every: int,
        checkpoint_sink=None,
        resume: bool = False,
    ) -> ExecutionReport:
        """Launch (or resume) the kernel, checkpointing every N units.

        Runs :meth:`launch_chunk` chunks of ``checkpoint_every`` units until
        the kernel finishes; after each paused chunk ``checkpoint_sink`` (if
        given) receives the :meth:`checkpoint` envelope.  The report is
        bit-identical to an uninterrupted :meth:`launch`'s, with
        ``wall_seconds`` summed over the chunks.
        """
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        wall_seconds = 0.0
        while True:
            report = self.launch_chunk(checkpoint_every, entry_pc, options, resume=resume)
            wall_seconds += report.wall_seconds
            resume = True
            if self.driver.done:
                return replace(report, wall_seconds=wall_seconds)
            if checkpoint_sink is not None:
                checkpoint_sink(self.checkpoint())

    # -- convenience ------------------------------------------------------------------------

    def read_words(self, address: int, count: int):
        """Read raw words from device memory (host-side debugging)."""
        return self.memory.read_words(address, count)

    @property
    def driver_name(self) -> str:
        """The canonical spec string of this device's driver."""
        return self.driver_spec.driver_name
