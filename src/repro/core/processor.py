"""Multi-core Vortex processors.

``Processor`` is the functional (instruction-granular) multi-core model
used by the FUNCSIM driver; ``TimingProcessor`` is the cycle-level model
used by the SIMX driver.  Both share the same device memory, support the
global (inter-core) barriers selected by the MSB of the barrier id, and
expose the performance counters the benchmark harness reports.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cache.hierarchy import MemorySubsystem
from repro.common.clock import DeviceClock
from repro.common.config import VortexConfig
from repro.common.perf import PerfCounters
from repro.core.barrier import BarrierTable
from repro.core.core import SimtCore
from repro.core.emulator import EmulationError, SimulationLimitExceeded, SimulationStalled
from repro.core.timing import TimingCore
from repro.mem.memory import MainMemory


class _GlobalBarrierMixin:
    """Global-barrier bookkeeping shared by both processor models."""

    #: Provided by the concrete processor (the mixin rebinds barrier
    #: participants to these cores' warps on restore).
    cores: list[Any]

    def _init_global_barriers(self, num_barriers: int = 16) -> None:
        self._global_barriers = BarrierTable(num_barriers)

    def global_barrier_arrive(self, core: Any, warp: Any, barrier_id: int, count: int) -> bool:
        """Register ``warp`` of ``core`` at a global barrier.

        Returns True when the warp must stall.  ``count`` is the total number
        of wavefronts (across all cores) expected at the barrier.
        """
        participant = (core.core_id, warp.warp_id, warp)
        released = self._global_barriers.arrive(barrier_id, count, participant)
        if any(entry[2] is warp for entry in released):
            for _, _, released_warp in released:
                released_warp.at_barrier = False
            return False
        warp.at_barrier = True
        return True

    def _snapshot_global_barriers(self) -> dict:
        """Serialize ``_global_barriers``; participants become (core, warp) id pairs."""
        return self._global_barriers.snapshot(
            lambda participant: [participant[0], participant[1]]
        )

    def _restore_global_barriers(self, payload: dict) -> None:
        """Restore ``_global_barriers``, rebinding id pairs to live warp objects."""

        def decode(encoded: Any) -> tuple[int, int, Any]:
            core_id, warp_id = encoded
            return (core_id, warp_id, self.cores[core_id].warps[warp_id])

        self._global_barriers.restore(payload, decode)


class Processor(_GlobalBarrierMixin):
    """Functional multi-core processor (the FUNCSIM driver's engine)."""

    #: Core model to instantiate; the vectorized engine substitutes its own.
    core_cls = SimtCore

    #: Counter schema (vxlint VX003): processor-level totals.
    COUNTERS = frozenset({"instructions"})

    def __init__(self, config: VortexConfig | None = None, memory: MainMemory | None = None):
        self.config = config or VortexConfig()
        self.memory = memory or MainMemory()
        self.cores: list[SimtCore] = [
            self.core_cls(core_id, self.config, self.memory, processor=self)
            for core_id in range(self.config.num_cores)
        ]
        self.perf = PerfCounters("processor")
        self._init_global_barriers()

    def reset(self, entry_pc: int) -> None:
        """Reset every core; each starts warp 0 / thread 0 at ``entry_pc``."""
        for core in self.cores:
            core.reset(entry_pc)

    @property
    def done(self) -> bool:
        return all(core.done for core in self.cores)

    def run(
        self,
        entry_pc: int | None = None,
        max_instructions: int = 50_000_000,
        stop_after_instructions: int | None = None,
    ) -> int:
        """Run to completion; returns total instructions executed.

        Cores and wavefronts are interleaved at instruction granularity so
        that inter-core (global) barriers make forward progress.

        ``stop_after_instructions`` pauses the run at the first scheduling
        *round* boundary at which at least that many instructions have been
        executed (by this call).  Stopping mid-round would change where the
        interleaving resumes, so the round always completes; a paused run is
        continued with another ``run()`` call (no ``entry_pc``) and is
        bit-identical to an uninterrupted one.
        """
        if entry_pc is not None:
            self.reset(entry_pc)
        executed = 0
        while not self.done:
            progressed = False
            for core in self.cores:
                for warp in core.warps:
                    if not warp.schedulable:
                        continue
                    core.step_warp(warp)
                    executed += 1
                    progressed = True
                    if executed >= max_instructions:
                        raise SimulationLimitExceeded(
                            "instructions",
                            max_instructions,
                            f"processor exceeded the instruction limit ({max_instructions})",
                        )
            if not progressed:
                raise EmulationError(
                    "processor deadlocked: active wavefronts exist but none can execute"
                )
            if stop_after_instructions is not None and executed >= stop_after_instructions:
                break
        self.perf.incr("instructions", executed)
        return executed

    # -- checkpoint/restore ---------------------------------------------------------------

    #: Configuration identity; fixed at construction (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"config"})

    def snapshot(self) -> dict:
        """Serialize the processor: memory image, every core, global barriers."""
        return {
            "memory": self.memory.snapshot(),
            "cores": [core.snapshot() for core in self.cores],
            "global_barriers": self._snapshot_global_barriers(),
            "perf": self.perf.snapshot(),
        }

    def restore(self, payload: dict) -> None:
        """Restore the processor from a :meth:`snapshot` payload."""
        self.memory.restore(payload["memory"])
        for core, core_payload in zip(self.cores, payload["cores"]):
            core.restore(core_payload)
        self._restore_global_barriers(payload["global_barriers"])
        self.perf.restore(payload["perf"])

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-core counter snapshot."""
        return {f"core{core.core_id}": core.perf.as_dict() for core in self.cores}


class TimingProcessor(_GlobalBarrierMixin):
    """Cycle-level multi-core processor (the SIMX driver's engine).

    The only writer (:meth:`tick`, :meth:`_skip_idle`, :meth:`restore`) of
    the device clock every component reads.  The clock never rewinds; a
    launch is its window ``(launch_start, launch_start + cycle]``, counted —
    like the retired totals — from the marks :meth:`reset` records.
    """

    #: Core model to instantiate; the tests' per-thread oracle substitutes its own.
    core_cls = TimingCore

    #: Deadlock watchdog: :meth:`run` raises :class:`SimulationStalled` after
    #: this many cycles in a row with nothing retired and no memory traffic.
    NO_PROGRESS_LIMIT = 200_000

    def __init__(
        self,
        config: VortexConfig | None = None,
        memory: MainMemory | None = None,
        trace: Any = None,
    ):
        self.config = config or VortexConfig()
        self.memory = memory or MainMemory()
        self.clock = DeviceClock()
        self.memsys = MemorySubsystem(self.config, self.clock)
        #: Observability bus (:class:`~repro.trace.bus.TraceBus` or None):
        #: threaded into every core and memory level at construction.
        self.trace = trace
        self.memsys.attach_trace(trace)
        self.cores: list[TimingCore] = [
            self.core_cls(
                core_id, self.config, self.memory, self.memsys, processor=self, trace=trace
            )
            for core_id in range(self.config.num_cores)
        ]
        #: Where the launch started: clock and retired totals at :meth:`reset`.
        self.launch_start = 0
        self._launch_instructions = self._launch_thread_instructions = 0
        self._init_global_barriers()

    def reset(self, entry_pc: int) -> None:
        """Reset every core; a launch starts at the current clock reading."""
        for core in self.cores:
            core.reset(entry_pc)
        # Plus what the last launch retired: the device-lifetime totals again.
        self._launch_instructions += self.total_instructions
        self._launch_thread_instructions += self.total_thread_instructions
        self.launch_start = self.clock.now

    @property
    def cycle(self) -> int:
        """Cycles into the current launch: the unit of :meth:`run`'s result,
        ``stop_cycle``, ``max_cycles`` and ``SimulationStalled.cycle``."""
        return self.clock.now - self.launch_start

    @property
    def done(self) -> bool:
        return all(core.done for core in self.cores) and not self.memsys.busy

    def global_barrier_arrive(self, core: Any, warp: Any, barrier_id: int, count: int) -> bool:
        stalled = super().global_barrier_arrive(core, warp, barrier_id, count)
        if not stalled:
            # The release cleared ``at_barrier`` on warps of other cores,
            # behind the scheduler masks those cores keep.
            for timing_core in self.cores:
                timing_core.invalidate_scheduler_masks()
        return stalled

    def tick(self) -> None:
        """Advance the whole processor by one cycle.

        ``reset(entry_pc)`` followed by ``while not done: tick()`` is the
        cycle-by-cycle reference that :meth:`run`'s fast-forward must equal.
        """
        self.clock.now += 1
        responses = self.memsys.tick()
        for core in self.cores:
            core.tick(
                icache_responses=responses.get(("i", core.core_id)),
                dcache_responses=responses.get(("d", core.core_id)),
            )

    # -- checkpoint/restore ---------------------------------------------------------------

    #: Configuration identity and the trace bus; fixed at construction
    #: (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"config", "trace"})

    def snapshot(self) -> dict:
        """Serialize the whole cycle-level processor at a cycle boundary."""
        return {
            "memory": self.memory.snapshot(),
            "memsys": self.memsys.snapshot(),
            "cores": [core.snapshot() for core in self.cores],
            "global_barriers": self._snapshot_global_barriers(),
            "now": self.clock.now,
            "launch_start": self.launch_start,
            "launch_instructions": self._launch_instructions,
            "launch_thread_instructions": self._launch_thread_instructions,
        }

    def restore(self, payload: dict) -> None:
        """Restore the processor from a :meth:`snapshot` payload."""
        self.clock.now = payload["now"]  # first: the cache levels read it restoring
        self.launch_start = payload["launch_start"]
        self._launch_instructions = payload["launch_instructions"]
        self._launch_thread_instructions = payload["launch_thread_instructions"]
        self.memory.restore(payload["memory"])
        self.memsys.restore(payload["memsys"])
        for core, core_payload in zip(self.cores, payload["cores"]):
            core.restore(core_payload)
        self._restore_global_barriers(payload["global_barriers"])

    def run(
        self,
        entry_pc: int | None = None,
        max_cycles: int = 20_000_000,
        max_instructions: int | None = None,
        stop_cycle: int | None = None,
    ) -> int:
        """Run to completion; returns the launch's elapsed cycle count (both
        budgets and ``stop_cycle`` count from the start of the launch too).

        ``stop_cycle`` pauses the run once ``cycle`` reaches that value (a
        cycle boundary, so every in-flight transaction is at a well-defined
        point).  A paused run is continued with another ``run()`` call (no
        ``entry_pc``); the only per-run state not carried over is the
        deadlock watchdog's no-progress streak, which restarts at zero —
        counter-neutral, it can only delay the watchdog exception.
        """
        if entry_pc is not None:
            self.reset(entry_pc)
        idle_cycles = 0
        retired = self.total_instructions
        # Lane-plan execution legitimately produces IEEE invalid/overflow
        # conditions inside masked numpy expressions (the scalar reference
        # silences them per operation); silence them for the whole run.
        with np.errstate(all="ignore"):
            while not self.done:
                if stop_cycle is not None and self.cycle >= stop_cycle:
                    break
                instructions_before = retired
                self.tick()
                retired = self.total_instructions  # read once per ticked cycle
                if self.cycle >= max_cycles:
                    raise SimulationLimitExceeded(
                        "cycles",
                        max_cycles,
                        f"timing simulation exceeded {max_cycles} cycles",
                    )
                # ``>=`` mirrors the functional Processor's budget semantics,
                # so LaunchOptions(max_instructions=N) behaves identically on
                # both driver families.
                if max_instructions is not None and retired >= max_instructions:
                    raise SimulationLimitExceeded(
                        "instructions",
                        max_instructions,
                        f"timing simulation exceeded {max_instructions} warp instructions",
                    )
                # Deadlock watchdog: no instruction retired for a long stretch while
                # cores still have active wavefronts and no memory traffic is pending.
                if retired == instructions_before and not self.memsys.busy:
                    idle_cycles += 1
                    if idle_cycles > self.NO_PROGRESS_LIMIT:
                        raise SimulationStalled(
                            self.cycle,
                            self.NO_PROGRESS_LIMIT,
                            [core.stall_forensics() for core in self.cores],
                            self._snapshot_global_barriers()["entries"],
                        )
                else:
                    idle_cycles = 0
                # Event-driven fast-forward: jump over provably idle cycle
                # runs instead of ticking through them (bit-identical to a
                # ``tick()`` loop in cycles, counters and expanded traces).
                skip = self._idle_cycles_to_skip(max_cycles - self.cycle)
                if skip and stop_cycle is not None:
                    # Never jump past the requested pause point: the
                    # skipped cycles are provably idle either way, so
                    # capping changes nothing but where the run stops.
                    skip = min(skip, stop_cycle - self.cycle)
                if skip > 0:
                    self._skip_idle(skip)
                    # Mirror the per-tick watchdog bookkeeping above: a
                    # skipped cycle retires nothing, so it counts toward
                    # the no-progress window unless memory traffic is in
                    # flight (in which case each tick would have reset it).
                    if not self.memsys.busy:
                        idle_cycles += skip
                    else:
                        idle_cycles = 0
        return self.cycle

    # -- fast-forward ---------------------------------------------------------------------

    def _idle_cycles_to_skip(self, cycles_left: int) -> int:
        """Number of provably idle cycles after the current one (0 = none).

        Every core and the memory subsystem report the earliest cycle their
        state can change; when the minimum lies strictly beyond ``now + 1``
        the ticks in between perform no work at all — no sends, no retries,
        no completions, no scheduler selections — and can be replayed as a
        bulk counter update.  Capped by the ``cycles_left`` of the budget so
        the cycle-limit exception fires at the same cycle as the ticked run.
        """
        floor = self.clock.now + 1
        next_event: int | None = None
        for core in self.cores:
            event = core.next_event_cycle()
            if event is not None:
                if event <= floor:
                    return 0
                if next_event is None or event < next_event:
                    next_event = event
        mem_event = self.memsys.next_event_cycle()
        if mem_event is not None:
            if mem_event <= floor:
                return 0
            if next_event is None or mem_event < next_event:
                next_event = mem_event
        if next_event is None:
            # Fully idle with no future event: the watchdog must keep
            # counting tick by tick toward its deadlock report.
            return 0
        skip = min(next_event - floor, cycles_left - 1)
        return skip if skip > 0 else 0

    def _skip_idle(self, cycles: int) -> None:
        """Advance the whole processor ``cycles`` idle cycles in one jump."""
        self.clock.now += cycles
        self.memsys.skip_idle(cycles)
        for core in self.cores:
            core.skip_idle(cycles)

    # -- metrics -------------------------------------------------------------------------

    @property
    def total_instructions(self) -> int:
        """Warp-instructions this launch retired (read every ticked cycle)."""
        retired = sum([core.perf._counters.get("instructions", 0) for core in self.cores])
        return retired - self._launch_instructions

    @property
    def total_thread_instructions(self) -> int:
        """Thread-instructions this launch retired across all cores."""
        retired = sum(core.perf.get("thread_instructions") for core in self.cores)
        return retired - self._launch_thread_instructions

    @property
    def ipc(self) -> float:
        """Aggregate thread-instructions per cycle (the paper's IPC metric)."""
        if self.cycle == 0:
            return 0.0
        return self.total_thread_instructions / self.cycle

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-core and per-cache counter snapshot (device-lifetime: every
        component's ``cycles`` is the clock it read)."""
        summary = {f"core{core.core_id}": core.perf.as_dict() for core in self.cores}
        summary.update(self.memsys.counters())
        for component in summary.values():
            component["cycles"] = self.clock.now
        return summary
