"""The common execution-engine interface.

Every simulation driver — the functional FUNCSIM model and the cycle-level
SIMX model — implements this protocol, which is what the device facade
(:class:`repro.runtime.device.VortexDevice`), the command processor and the
batched :class:`repro.engine.session.Session` program against.  The protocol
is deliberately small: construct against a ``(config, memory)`` pair, run a
kernel to completion, and allow the program-load path to invalidate any
cached decodes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.runtime.launch import LaunchOptions
from repro.runtime.report import ExecutionReport


@runtime_checkable
class ExecutionEngine(Protocol):
    """What a simulation driver must provide to plug into the runtime stack."""

    #: Short identifier used in reports ("funcsim", "simx", …).
    name: str

    def run(self, entry_pc: int, options: LaunchOptions | None = None) -> ExecutionReport:
        """Execute the kernel at ``entry_pc`` to completion.

        ``options`` is the uniform :class:`LaunchOptions` record; drivers
        apply the budget fields that are meaningful for their model and
        ignore the rest.
        """
        ...

    def invalidate_decode_caches(self) -> None:
        """Drop cached instruction decodes (a new program image was loaded)."""
        ...
