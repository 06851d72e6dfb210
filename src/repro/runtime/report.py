"""Execution reports returned by the simulation drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExecutionReport:
    """Summary of one kernel execution.

    ``cycles``, ``instructions`` and ``thread_instructions`` (so ``ipc``)
    count this one launch from its start, whatever ran on the device before;
    ``cycles`` is zero for the functional driver (it does not model time).
    ``counters`` carries the driver's per-component performance counters:
    hardware counters, which run for the life of the device (a component's
    ``cycles`` is the device clock) and on a relaunch include earlier launches.
    """

    driver: str
    cycles: int
    instructions: int
    thread_instructions: int
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    #: host wall-clock seconds the simulation took (0.0 when not measured).
    wall_seconds: float = 0.0
    #: execution engine behind the driver ("vector", "timing-vector", "").
    engine: str = ""

    @property
    def instructions_per_second(self) -> float:
        """Simulated warp-instructions per host wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def thread_instructions_per_second(self) -> float:
        """Simulated thread-instructions per host wall-clock second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.thread_instructions / self.wall_seconds

    @property
    def ipc(self) -> float:
        """Thread-instructions per cycle (the paper's IPC metric)."""
        if self.cycles == 0:
            return 0.0
        return self.thread_instructions / self.cycles

    @property
    def warp_ipc(self) -> float:
        """Warp-instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def counter(self, component: str, name: str) -> int:
        """Read one counter, defaulting to 0."""
        return self.counters.get(component, {}).get(name, 0)

    def to_payload(self) -> dict[str, Any]:
        """A JSON-ready payload that round-trips losslessly.

        ``from_payload(report.to_payload())`` reconstructs a report equal to
        the original field-for-field — the symmetry the service layer's
        content-addressed result cache relies on for bit-identical replay.
        """
        return {
            "driver": self.driver,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "thread_instructions": self.thread_instructions,
            "counters": {
                component: dict(counters) for component, counters in self.counters.items()
            },
            "wall_seconds": self.wall_seconds,
            "engine": self.engine,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> ExecutionReport:
        """Reconstruct a report from :meth:`to_payload` output."""
        return cls(
            driver=payload["driver"],
            cycles=payload["cycles"],
            instructions=payload["instructions"],
            thread_instructions=payload["thread_instructions"],
            counters={
                component: dict(counters)
                for component, counters in payload.get("counters", {}).items()
            },
            wall_seconds=payload.get("wall_seconds", 0.0),
            engine=payload.get("engine", ""),
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        rate = ""
        if self.wall_seconds > 0.0:
            rate = f" wall={self.wall_seconds:.3f}s rate={self.instructions_per_second:,.0f} instr/s"
        if self.cycles:
            return (
                f"[{self.driver}] cycles={self.cycles} instrs={self.instructions} "
                f"IPC={self.ipc:.3f}{rate}"
            )
        return f"[{self.driver}] instrs={self.instructions}{rate}"
