"""Host-side runtime: the driver stack of Figure 9 and the simulation stack
of Figure 8.

* :mod:`repro.runtime.driver` — the command processor (AFU) model: MMIO
  registers, DMA transfers between host and device memory, kernel launch;
  and the one simulation driver under it (``FuncSimDriver``, functional).
* :mod:`repro.runtime.buffer` — device memory allocation and typed buffers.
* :mod:`repro.runtime.simx` — ``SimxDriver``, the same driver over the
  cycle-level model plus the trace bus, mirroring the paper's SIMX driver.
* :mod:`repro.runtime.device` — ``VortexDevice``, the public facade
  applications use (upload a program, allocate buffers, launch, read back).
* :mod:`repro.runtime.registry` — the spec-based driver registry
  (:class:`DriverSpec`, ``register_driver``, ``parse_driver_spec``).
* :mod:`repro.runtime.launch` — :class:`LaunchOptions`, the uniform launch
  parameter record every driver accepts.
* :mod:`repro.runtime.opencl` — a minimal OpenCL-style host API layered on
  top of ``VortexDevice`` (the POCL runtime substitution).
"""

from repro.runtime.buffer import BufferAllocator, DeviceBuffer
from repro.runtime.device import VortexDevice, ExecutionReport
from repro.runtime.driver import CommandProcessor, DriverError, FuncSimDriver
from repro.runtime.launch import LaunchOptions
from repro.runtime.registry import (
    DriverSpec,
    available_simulators,
    create_driver,
    parse_driver_spec,
    register_driver,
)
from repro.runtime.simx import SimxDriver
from repro.runtime.opencl import Context, Program as ClProgram, KernelLauncher

__all__ = [
    "BufferAllocator",
    "DeviceBuffer",
    "VortexDevice",
    "ExecutionReport",
    "CommandProcessor",
    "DriverError",
    "FuncSimDriver",
    "SimxDriver",
    "DriverSpec",
    "LaunchOptions",
    "available_simulators",
    "create_driver",
    "parse_driver_spec",
    "register_driver",
    "Context",
    "ClProgram",
    "KernelLauncher",
]
