"""A minimal OpenCL-style host API (the POCL runtime substitution).

The paper runs OpenCL applications through a modified POCL runtime whose
work-item loop is lowered onto the ``pocl_spawn`` device runtime.  This
module provides the same programming style for the reproduction: a
``Context`` owns a device, a ``Program`` exposes named kernels, and a
``KernelLauncher`` takes buffer/scalar arguments and an ND-range and turns
them into the argument block + ``spawn_tasks`` launch the device-side
runtime expects.

.. code-block:: python

    ctx = Context(driver="simx")
    program = Program(ctx, ["vecadd"])
    kernel = program.kernel("vecadd")
    a = ctx.buffer_from(np.arange(256, dtype=np.uint32))
    b = ctx.buffer_from(np.ones(256, dtype=np.uint32))
    c = ctx.buffer(256 * 4)
    kernel.set_args(a, b, c)
    report = kernel.enqueue(global_size=256)
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.common.config import VortexConfig
from repro.runtime.buffer import DeviceBuffer
from repro.runtime.device import VortexDevice
from repro.runtime.launch import LaunchOptions
from repro.runtime.registry import DriverSpec
from repro.runtime.report import ExecutionReport


class Context:
    """An OpenCL-context lookalike owning one Vortex device.

    ``driver`` is a driver spec — a canonical spec string such as
    ``"simx"`` or ``"simx:trace=mem"``, or a :class:`DriverSpec`.
    """

    def __init__(
        self,
        config: VortexConfig | None = None,
        driver: str | DriverSpec = "simx",
    ):
        self.device = VortexDevice(config=config, driver=driver)

    def buffer(self, size: int) -> DeviceBuffer:
        """Allocate an uninitialized device buffer of ``size`` bytes."""
        return self.device.alloc(size)

    def buffer_from(self, array: np.ndarray) -> DeviceBuffer:
        """Allocate a device buffer initialized from a numpy array."""
        return self.device.alloc_array(array)


class Program:
    """A collection of named kernels built for one context.

    Kernels are looked up in the :mod:`repro.kernels` registry — the
    reproduction's stand-in for compiling OpenCL C through POCL.
    """

    def __init__(self, context: Context, kernel_names: Iterable[str]):
        from repro.kernels import KERNELS  # local import to avoid a cycle

        self.context = context
        self._kernels: dict[str, object] = {}
        for name in kernel_names:
            if name not in KERNELS:
                raise KeyError(f"unknown kernel {name!r}; available: {sorted(KERNELS)}")
            self._kernels[name] = KERNELS[name]()

    def kernel(self, name: str) -> KernelLauncher:
        """Return a launcher for kernel ``name``."""
        return KernelLauncher(self.context, self._kernels[name])

    @property
    def kernel_names(self) -> list[str]:
        return sorted(self._kernels)


class KernelLauncher:
    """Binds arguments and launches one kernel over an ND-range."""

    def __init__(self, context: Context, kernel):
        self.context = context
        self.kernel = kernel
        self._args: list[int | DeviceBuffer] = []

    def set_args(self, *args: int | float | DeviceBuffer) -> KernelLauncher:
        """Set the kernel arguments (buffers become device addresses)."""
        self._args = list(args)
        return self

    def enqueue(
        self, global_size: int, options: LaunchOptions | None = None
    ) -> ExecutionReport:
        """Launch the kernel over ``global_size`` work items.

        ``options`` (a :class:`LaunchOptions`) bounds the launch uniformly
        on whichever driver backs the context's device.
        """
        device = self.context.device
        program = self.kernel.build_program()
        device.upload_program(program)
        words = [int(global_size)]
        for arg in self._args:
            words.append(self._encode_arg(arg))
        device.write_kernel_args(words)
        # No explicit entry: options.entry_pc (when set) outranks the
        # uploaded program's entry, like every other launch path.
        return device.launch(options=options)

    @staticmethod
    def _encode_arg(arg: int | float | DeviceBuffer) -> int:
        if isinstance(arg, DeviceBuffer):
            return arg.address
        if isinstance(arg, float):
            from repro.common.bitutils import float_to_bits

            return float_to_bits(arg)
        return int(arg)
