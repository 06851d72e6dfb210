"""Vortex reproduction: a RISC-V SIMT GPGPU system in Python.

This package reproduces the system described in "Vortex: Extending the
RISC-V ISA for GPGPU and 3D-Graphics Research" (MICRO 2021): the six
instruction ISA extension, the SIMT microarchitecture with its
high-bandwidth non-blocking cache subsystem and texture units, the
host-side driver/runtime stack with an OpenCL-style API, a software
tile-based graphics pipeline, and the benchmark harness regenerating the
paper's evaluation tables and figures.

Typical entry points:

* :class:`repro.runtime.VortexDevice` -- upload a kernel, allocate buffers,
  launch, read results (choose the ``simx`` cycle-level or ``funcsim``
  functional driver).
* :mod:`repro.kernels` -- the Rodinia-style and texture benchmark kernels.
* :class:`repro.runtime.Context` -- the OpenCL-style host API.
* :class:`repro.graphics.GraphicsContext` -- the OpenGL-ES-style renderer.
* :mod:`repro.synthesis` -- the calibrated FPGA area/frequency model.
"""

from repro.common.config import (
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    SCHEDULER_POLICIES,
    TextureConfig,
    VortexConfig,
)
from repro.engine.session import (
    BatchReport,
    JobQueue,
    JobResult,
    KernelJob,
    Session,
)
from repro.runtime.device import VortexDevice
from repro.runtime.launch import LaunchOptions
from repro.runtime.registry import DriverSpec, parse_driver_spec, register_driver
from repro.runtime.report import ExecutionReport

__version__ = "1.0.0"

#: Service-layer exports resolved lazily so importing :mod:`repro` does not
#: pull in the asyncio/multiprocessing serving stack.
_SERVICE_EXPORTS = ("SimulationService", "ServiceConfig", "ServiceClient")


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        import repro.service

        return getattr(repro.service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "MemoryConfig",
    "SCHEDULER_POLICIES",
    "TextureConfig",
    "VortexConfig",
    "VortexDevice",
    "ExecutionReport",
    "DriverSpec",
    "LaunchOptions",
    "parse_driver_spec",
    "register_driver",
    "Session",
    "JobQueue",
    "JobResult",
    "KernelJob",
    "BatchReport",
    "SimulationService",
    "ServiceConfig",
    "ServiceClient",
    "__version__",
]
