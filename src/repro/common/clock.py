"""The device clock: Vortex is one clock domain, so a device has one clock.

:class:`~repro.core.processor.TimingProcessor` creates it, installs the same
object in the memory subsystem (every cache level, the DRAM model) and every
core (its scratchpad and CSR file) and is the only one to advance it; the
components *read* ``clock.now``.  It is never rewound: a relaunch keeps the
caches warm and the processor only records where the launch started.  A
component built on its own holds a private clock that whoever drives it by
hand advances (the ``tick`` fixture of the test suite).
"""

from __future__ import annotations

#: "No such cycle": the ``wake`` of a memory level with nothing scheduled.
NEVER = 1 << 62


class DeviceClock:
    """One monotonically increasing cycle count, ``now``."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0
