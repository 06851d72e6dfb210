"""Multi-core Vortex processors.

``Processor`` is the functional (instruction-granular) multi-core model;
its lane-vectorized subclass ``VectorProcessor`` is the FUNCSIM driver's
engine, and ``Processor`` the tests' per-thread oracle for it.
``TimingProcessor`` is the cycle-level model used by the SIMX driver.  All
share the same device memory, support the global (inter-core) barriers
selected by the MSB of the barrier id, and expose the performance counters
the benchmark harness reports.
"""

from __future__ import annotations

from typing import Any, cast

import numpy as np

from repro.cache.hierarchy import MemorySubsystem
from repro.common.clock import DeviceClock
from repro.common.config import VortexConfig
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, CHILDREN, VALUE, Codec, Stateful
from repro.core.barrier import PARTICIPANTS, BarrierTable
from repro.core.core import SimtCore, VectorSimtCore
from repro.core.emulator import EmulationError, SimulationLimitExceeded, SimulationStalled
from repro.core.timing import TimingCore
from repro.mem.memory import MainMemory


class _GlobalBarrierMixin(Stateful):
    """Global-barrier bookkeeping shared by both processor models."""

    #: Provided by the concrete processor (the mixin rebinds barrier
    #: participants to these cores' warps on restore).
    cores: list[Any]
    _global_barriers: BarrierTable

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

    def _encode_participant(self, participant: tuple[int, int, Any]) -> list[int]:
        return [participant[0], participant[1]]

    def _decode_participant(self, encoded: list[int]) -> tuple[int, int, Any]:
        core_id, warp_id = encoded
        return (core_id, warp_id, self.cores[core_id].warps[warp_id])


def _restore_clock(processor: Any, now: int, clock: DeviceClock, refs: object) -> DeviceClock:
    clock.now = now
    return clock


#: The device clock travels as its reading, restored first: the cache levels
#: read it restoring.
_CLOCK = Codec(lambda processor, clock, refs: clock.now, _restore_clock, "now")


class Processor(_GlobalBarrierMixin):
    """Functional multi-core processor, stepping one thread at a time."""

    #: Core model to instantiate; :class:`VectorProcessor` substitutes the vectorized one.
    core_cls = SimtCore

    STATE = {
        "memory": CHILD,
        "cores": CHILDREN,
        "_global_barriers": PARTICIPANTS,
        "perf": CHILD,
    }
    #: Configuration identity; fixed at construction (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"config"})

    def __init__(self, config: VortexConfig | None = None, memory: MainMemory | None = None):
        self.config = config or VortexConfig()
        self.memory = memory or MainMemory()
        self.cores: list[SimtCore] = [
            self.core_cls(core_id, self.config, self.memory, processor=self)
            for core_id in range(self.config.num_cores)
        ]
        self.perf = PerfCounters("processor")
        self._global_barriers = BarrierTable(16)

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

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-core counter snapshot."""
        return {f"core{core.core_id}": core.perf.as_dict() for core in self.cores}


class VectorProcessor(Processor):
    """Functional multi-core processor backed by the vectorized cores."""

    core_cls = VectorSimtCore

    def run(
        self,
        entry_pc: int | None = None,
        max_instructions: int = 50_000_000,
        stop_after_instructions: int | None = None,
    ) -> int:
        """Run to completion; returns total warp instructions executed.

        Cores and wavefronts are interleaved at instruction granularity
        exactly like the scalar processor; the instruction limit is checked
        once per scheduling round (the round length is bounded by
        ``num_cores * num_warps``).

        ``stop_after_instructions`` pauses at the same scheduling-round
        boundaries as the scalar processor's, so a paused-and-resumed run
        replays the identical interleaving.
        """
        if entry_pc is not None:
            self.reset(entry_pc)
        executed = 0
        cores = cast("list[VectorSimtCore]", self.cores)
        # Performance counters are accumulated in plain ints and flushed
        # into the perf state once at the end (or on error): nothing
        # observes them mid-run and the per-instruction increments are
        # measurable at this loop's throughput.  The instret CSR *is*
        # guest-visible (csrrs of INSTRET), so it advances per retired
        # instruction, exactly like the scalar engine — and the limit is
        # checked per instruction so both engines raise at the same
        # boundary.
        retired_per_core = [0] * len(cores)
        threads_per_core = [0] * len(cores)
        try:
            with np.errstate(all="ignore"):
                while True:
                    progressed = False
                    for index, core in enumerate(cores):
                        build_plan = core.emulator._build_plan
                        csr = core.csr
                        retired = 0
                        thread_retired = 0
                        try:
                            for warp in core.warps:
                                if not warp.active or warp.at_barrier or warp._tmask == 0:
                                    continue
                                pc = warp.pc
                                cache = warp.plan_cache
                                plan = cache.get(pc)
                                if plan is None:
                                    plan = build_plan(warp, pc)
                                    cache[pc] = plan
                                thread_retired += warp.active_count
                                plan(warp)
                                warp.instructions += 1
                                csr.instret += 1
                                retired += 1
                                executed += 1
                                if executed >= max_instructions:
                                    raise SimulationLimitExceeded(
                                        "instructions",
                                        max_instructions,
                                        "processor exceeded the instruction limit "
                                        f"({max_instructions})",
                                    )
                        finally:
                            if retired:
                                progressed = True
                                retired_per_core[index] += retired
                                threads_per_core[index] += thread_retired
                    if not progressed:
                        if self.done:
                            break
                        raise EmulationError(
                            "processor deadlocked: active wavefronts exist but none can execute"
                        )
                    if (
                        stop_after_instructions is not None
                        and executed >= stop_after_instructions
                    ):
                        break
        finally:
            for index, core in enumerate(cores):
                if retired_per_core[index]:
                    core.perf.incr("instructions", retired_per_core[index])
                    core.perf.incr("thread_instructions", threads_per_core[index])
        self.perf.incr("instructions", executed)
        return executed


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

    STATE = {
        "clock": _CLOCK,
        "launch_start": VALUE,
        "_launch_instructions": VALUE,
        "_launch_thread_instructions": VALUE,
        "memory": CHILD,
        "memsys": CHILD,
        "cores": CHILDREN,
        "_global_barriers": PARTICIPANTS,
    }
    #: Configuration identity and the trace bus; fixed at construction
    #: (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"config", "trace"})

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
        self._global_barriers = BarrierTable(16)

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
        # Each ticked cycle reads done / retired / cycle from these, not the properties.
        cores, clock, memsys = self.cores, self.clock, self.memsys
        counters = [core._counters for core in cores]
        start, base = self.launch_start, self._launch_instructions
        idle_cycles = 0
        retired = self.total_instructions
        # Lane-plan execution legitimately produces IEEE invalid/overflow
        # conditions inside masked numpy expressions (the scalar reference
        # silences them per operation); silence them for the whole run.
        with np.errstate(all="ignore"):
            # Core 0 alone first: it has work left on almost every tick.
            while not (cores[0].done and all(core.done for core in cores) and not memsys.busy):
                if stop_cycle is not None and clock.now - start >= stop_cycle:
                    break
                instructions_before = retired
                self.tick()
                retired = sum([c.get("instructions", 0) for c in counters]) - base
                cycle = clock.now - start
                if cycle >= max_cycles:
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
                if retired == instructions_before and not memsys.busy:
                    idle_cycles += 1
                    if idle_cycles > self.NO_PROGRESS_LIMIT:
                        raise SimulationStalled(
                            self.cycle,
                            self.NO_PROGRESS_LIMIT,
                            [core.stall_forensics() for core in self.cores],
                            self._global_barriers.snapshot(self._encode_participant)[
                                "entries"
                            ],
                        )
                else:
                    idle_cycles = 0
                # Event-driven fast-forward: jump over provably idle cycle
                # runs instead of ticking through them (bit-identical to a
                # ``tick()`` loop in cycles, counters and expanded traces).
                skip = self._idle_cycles_to_skip(max_cycles - cycle)
                if skip and stop_cycle is not None:
                    # Never jump past the requested pause point: the
                    # skipped cycles are provably idle either way, so
                    # capping changes nothing but where the run stops.
                    skip = min(skip, stop_cycle - cycle)
                if skip > 0:
                    self._skip_idle(skip)
                    # Mirror the per-tick watchdog bookkeeping above: a
                    # skipped cycle retires nothing, so it counts toward
                    # the no-progress window unless memory traffic is in
                    # flight (in which case each tick would have reset it).
                    if not memsys.busy:
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
        """Warp-instructions this launch retired."""
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
