"""Multi-core Vortex processors.

``Processor`` is the functional (instruction-granular) multi-core model;
its lane-vectorized subclass ``VectorProcessor`` is the FUNCSIM driver's
engine, and ``Processor`` the tests' per-thread oracle for it.  Both step
warps round-robin through one loop, ``Processor._round``; ``VectorProcessor``
also runs windows of rounds of private code out of that order (same-PC warps
as one block, which runs a whole loop of straight-line code in one call
when no other run shares its PC), and rolls back where that would show.
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
from repro.common.state import CHILD, CHILDREN, VALUE, Codec, Stateful
from repro.core.barrier import PARTICIPANTS, BarrierTable
from repro.core.core import SimtCore, VectorSimtCore
from repro.core.emulator import EmulationError, SimulationLimitExceeded, SimulationStalled
from repro.core.timing import NOT_ISSUED, READY_NEXT, TimingCore
from repro.mem.memory import MainMemory


#: Budgets a launch gets when its options set none: the cycle-level model
#: bounds cycles, the functional one (which keeps no time) instructions.
DEFAULT_MAX_CYCLES = 20_000_000
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


class _LaunchedProcessor(Stateful):
    """What both processor models share: cores over one device memory, the
    global barriers, and the launch marks.

    :meth:`reset` records the marks (the device-lifetime retired totals
    when a launch starts), so ``total_instructions``, the instruction
    budget and ``pause_at`` count from the start of the launch however it
    was paused, resumed or restored.  ``progress`` is the unit of
    ``pause_at``: cycles on the cycle-level model, warp instructions on the
    functional one.
    """

    STATE = {
        "_launch_instructions": VALUE,
        "_launch_thread_instructions": VALUE,
        "memory": CHILD,
        "cores": CHILDREN,
        "_global_barriers": PARTICIPANTS,
    }
    #: Configuration identity; fixed at construction (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"config"})

    def __init__(self, config: VortexConfig | None = None, memory: MainMemory | None = None):
        self.config = config or VortexConfig()
        self.memory = memory or MainMemory()
        self.cores: list[Any] = [self._new_core(core_id) for core_id in range(self.config.num_cores)]
        self._launch_instructions = self._launch_thread_instructions = 0
        self._global_barriers = BarrierTable(16)

    def _new_core(self, core_id: int) -> Any:
        raise NotImplementedError

    def reset(self, entry_pc: int) -> None:
        """Reset every core; each starts warp 0 / thread 0 at ``entry_pc``."""
        for core in self.cores:
            core.reset(entry_pc)
        # Plus what the last launch retired: the device-lifetime totals again.
        self._launch_instructions += self.total_instructions
        self._launch_thread_instructions += self.total_thread_instructions

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


class Processor(_LaunchedProcessor):
    """Functional multi-core processor, stepping one thread at a time."""

    #: Core model to instantiate; :class:`VectorProcessor` substitutes the vectorized one.
    core_cls = SimtCore

    #: The functional model keeps no time: a launch takes no cycles, and
    #: ``pause_at`` counts warp instructions.
    cycle = 0
    progress = _LaunchedProcessor.total_instructions

    def _new_core(self, core_id: int) -> SimtCore:
        return self.core_cls(core_id, self.config, self.memory, processor=self)

    @property
    def done(self) -> bool:
        return all(core.done for core in self.cores)

    def run(
        self,
        entry_pc: int | None = None,
        *,
        max_cycles: int | None = None,
        max_instructions: int | None = None,
        pause_at: int | None = None,
    ) -> int:
        """Run to completion; returns the warp instructions the launch retired.

        Cores and wavefronts are interleaved at instruction granularity so
        that inter-core (global) barriers make forward progress.
        ``max_instructions`` (default :data:`DEFAULT_MAX_INSTRUCTIONS`)
        bounds the warp instructions the launch retires; ``max_cycles`` is
        ignored, as the functional model keeps no time.

        ``pause_at`` pauses the run at the first scheduling *round* boundary
        at which the launch has retired at least that many instructions.
        Stopping mid-round would change where the interleaving resumes, so
        the round always completes; a paused run is continued with another
        ``run()`` call (no ``entry_pc``) and is bit-identical to an
        uninterrupted one.
        """
        if entry_pc is not None:
            self.reset(entry_pc)
        limit = max_instructions or DEFAULT_MAX_INSTRUCTIONS
        executed = self.total_instructions
        # Lane plans produce IEEE invalid/overflow conditions inside masked
        # numpy expressions (the scalar reference silences them per operation).
        with np.errstate(all="ignore"):
            while not self.done and (pause_at is None or executed < pause_at):
                executed = self._advance(executed, limit, pause_at)
        return executed

    def _advance(self, executed: int, max_instructions: int, pause_at: int | None) -> int:
        """Run the next stretch of the launch; returns ``executed`` plus the
        instructions it retired.  Here: one round."""
        return self._round(executed, max_instructions)

    def _round(self, executed: int, max_instructions: int) -> int:
        """One scheduling round: every schedulable warp steps once, in core
        and warp order, the limit checked per instruction; returns
        ``executed`` plus the round's instructions."""
        progressed = False
        for core in self.cores:
            for warp in core.warps:
                if not warp.schedulable:
                    continue
                core.step_warp(warp)
                executed += 1
                progressed = True
                if executed >= max_instructions:
                    raise SimulationLimitExceeded("instructions", max_instructions, executed, 0)
        if not progressed:
            raise EmulationError(
                "processor deadlocked: active wavefronts exist but none can execute"
            )
        return executed

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-core counter snapshot."""
        return {f"core{core.core_id}": core.perf.as_dict() for core in self.cores}


class VectorProcessor(Processor):
    """Functional multi-core processor backed by the vectorized cores."""

    core_cls = VectorSimtCore

    def _advance(self, executed: int, max_instructions: int, pause_at: int | None) -> int:
        """Where every schedulable warp sits on a private instruction, up to
        ``WINDOW_ROUNDS`` rounds run as one window out of round order
        (:meth:`_window`): private instructions of different warps commute,
        so any order that keeps each warp's own gives the same state, and
        one block call may run all of a core's warps through hundreds of
        instructions.  ``split``/``join`` count as private while they leave
        every thread mask unchanged, so on sgemm one window runs a whole
        task.  Windows end before any pause boundary and below
        ``max_instructions``.
        Everywhere else the scalar processor's round runs, each warp through
        its lane plan, so both engines raise at the same instruction and
        pause at the same round boundaries.
        """
        committed = self._window(executed, max_instructions, pause_at)
        return executed + committed if committed else self._round(executed, max_instructions)

    def _window(self, executed: int, max_instructions: int, stop: int | None) -> int:
        """Run the next rounds as one private window if every schedulable
        warp is on a private instruction; returns the warp instructions it
        committed (0: none).  Each core runs its share in blocks
        (:func:`_private_rounds`).  Each core's memo, keyed by its warps'
        PCs, caps the length; a window that fails — at a non-private
        instruction, a ``split``/``join`` that would change a thread mask,
        or an exception — rolls back (:meth:`_roll_back`: the journal holds
        registers, counters, access counts, and each warp's PC, retired
        count, IPDOM entries and ``max_occupancy``) and the memo takes the
        depth the failing warps reached.  No mask changes inside a window,
        so its thread instructions are its rounds times each warp's active
        lanes."""
        cores = cast("list[VectorSimtCore]", self.cores)
        keys = [tuple([w.pc if w.schedulable else -1 for w in core.warps]) for core in cores]
        rounds, scheduled = WINDOW_ROUNDS, 0
        for core, key in zip(cores, keys):
            for pc in key:
                if pc >= 0 and not core.emulator.private(pc):
                    return 0
            scheduled += len(key) - key.count(-1)
            rounds = min(rounds, core.window_lengths.get(key, WINDOW_ROUNDS))
        if not scheduled:
            return 0
        rounds = min(rounds, (max_instructions - executed - 1) // scheduled)
        if stop is not None:
            rounds = min(rounds, -(-(stop - executed) // scheduled))
        while rounds >= 2:
            saved = self.memory.reads, self.memory.writes, [
                (core.int_stack.copy(), core.fp_stack.copy(), dict(core.perf._counters),
                 [(warp.pc, warp.instructions, warp.ipdom._entries.copy(),
                   warp.ipdom.max_occupancy) for warp in core.warps])
                for core in cores
            ]
            depths = [_private_rounds(core, rounds) for core in cores]
            if depths.count(None) == len(cores):
                break
            self._roll_back(saved)
            for core, key, depth in zip(cores, keys, depths):
                if depth is not None:
                    if len(core.window_lengths) >= WINDOW_MEMO_LIMIT:
                        core.window_lengths.clear()
                    core.window_lengths[key] = depth
                    rounds = min(rounds, depth)
        else:
            return 0
        for core, key in zip(cores, keys):
            warps = [warp for warp, pc in zip(core.warps, key) if pc >= 0]
            core.csr.instret += rounds * len(warps)
            core.perf.incr("instructions", rounds * len(warps))
            core.perf.incr("thread_instructions", rounds * sum([w.active_count for w in warps]))
        return rounds * scheduled

    def _roll_back(self, saved: tuple) -> None:
        """Undo a window: restore the memory access counts and each core's
        register stacks and counters, and every warp's PC, retired count,
        IPDOM entries and ``max_occupancy`` (no thread mask changes in a
        window)."""
        self.memory.reads, self.memory.writes, cores = saved
        for core, (int_stack, fp_stack, counters, warps) in zip(self.cores, cores):
            core.int_stack[...] = int_stack
            core.fp_stack[...] = fp_stack
            core.perf._counters.clear()
            core.perf._counters.update(counters)
            for warp, (pc, instructions, entries, occupancy) in zip(core.warps, warps):
                warp.pc, warp.instructions = pc, instructions
                warp.ipdom._entries[:] = entries
                warp.ipdom.max_occupancy = occupancy


#: Rounds one window runs at most (enough for a whole sgemm 74² task, from
#: the ``ret`` after one ``fsw`` to the next); start layouts a core's memo
#: holds.
WINDOW_ROUNDS = 1024
WINDOW_MEMO_LIMIT = 1024


def _private_rounds(core: VectorSimtCore, rounds: int) -> int | None:
    """Run ``rounds`` instructions of every schedulable warp of ``core``;
    None when they all ran, else the fewest instructions a warp stopped at
    a non-private or raising instruction had run (a ``split`` or ``join``
    that would change a thread mask raises here: see
    :attr:`~repro.core.vector_emulator.VectorWarpEmulator.windowed`).

    All warps at one PC go together, adjacent full-mask runs as one block
    (the only place blocks run).  Where the live warps sit at different
    PCs, stragglers regroup first: the PC the fewest warps hold goes next,
    the lowest of those on a tie.  A lone run at that PC executes as many
    instructions as the budget allows, several runs one each."""
    blocks, private, emulator = core.block_cache, core.private_pcs, core.emulator
    live = [warp for warp in core.warps if warp.schedulable]
    targets = [warp.instructions + rounds for warp in core.warps]
    # ``budget`` never exceeds any live warp's remaining instructions: every
    # step takes as many from it as from the warps that moved least.
    budget = 0
    pc = -1
    emulator.windowed = True
    try:
        while True:
            if not budget:
                live = [warp for warp in live if warp.instructions < targets[warp.warp_id]]
                if not live:
                    return None
                budget = min([targets[warp.warp_id] - warp.instructions for warp in live])
                together = _warp_runs(live)
            pcs = [warp.pc for warp in live]
            pc = min(pcs)
            held = pcs.count(pc)
            if held == len(pcs):
                runs = together
            else:
                if held > 1:  # one warp is the fewest any PC holds
                    pc = min(sorted(set(pcs)), key=pcs.count)
                runs = _warp_runs([warp for warp, at in zip(live, pcs) if at == pc])
            limit = budget if len(runs) == 1 else 1
            is_private = private.get(pc)
            if not (emulator.private(pc) if is_private is None else is_private):
                break
            step = 1
            for members in runs:
                # A block that runs nothing runs its first warp alone, and
                # the rest try again, one instruction long.
                while members:
                    count = len(members)
                    if count > 1:
                        key = (pc, members[0].warp_id, count)
                        block = blocks.get(key)
                        if block is None and key not in blocks:
                            block = blocks[key] = emulator._build_block(*key)
                        if block is not None:
                            step = block[1](limit)
                            if step:
                                break
                            step = limit = 1
                    warp = members[0]
                    emulator._arch_plan(warp, pc)(warp)
                    warp.instructions += 1
                    members = members[1:]
            budget -= step
    except Exception:  # rolled back: the rerun in round order runs or raises it
        pass
    finally:
        emulator.windowed = False
    stopped = [warp for warp in live if warp.pc == pc and warp.instructions < targets[warp.warp_id]]
    return rounds - max([targets[warp.warp_id] - warp.instructions for warp in stopped])


def _warp_runs(warps: list) -> list[list]:
    """``warps`` (ascending ids) split into maximal runs of adjacent
    full-mask warps; any other warp is a run of its own."""
    runs: list[list] = []
    for warp in warps:
        last = runs[-1][-1] if runs else None
        if last is not None and last.full and warp.full and last.warp_id + 1 == warp.warp_id:
            runs[-1].append(warp)
        else:
            runs.append([warp])
    return runs


class TimingProcessor(_LaunchedProcessor):
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
        "_idle_streak": VALUE,
        "memsys": CHILD,
        **_LaunchedProcessor.STATE,
    }
    #: Configuration identity and the trace bus, fixed at construction, and
    #: the last tick's issue report, which only :meth:`run` reads (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"config", "trace", "_issued"})

    def __init__(
        self,
        config: VortexConfig | None = None,
        memory: MainMemory | None = None,
        trace: Any = None,
    ):
        config = config or VortexConfig()
        self.clock = DeviceClock()
        self.memsys = MemorySubsystem(config, self.clock)
        #: Observability bus (:class:`~repro.trace.bus.TraceBus` or None):
        #: threaded into every core and memory level at construction.
        self.trace = trace
        self.memsys.attach_trace(trace)
        #: Where the launch started on the clock (:meth:`reset`).
        self.launch_start = 0
        #: The watchdog's no-progress streak: cycles in a row that retired
        #: nothing with no memory traffic, carried across pauses.
        self._idle_streak = 0
        #: The most any core reported on the last :meth:`tick`.
        self._issued = NOT_ISSUED
        super().__init__(config, memory)

    def _new_core(self, core_id: int) -> TimingCore:
        return self.core_cls(
            core_id, self.config, self.memory, self.memsys, processor=self, trace=self.trace
        )

    def reset(self, entry_pc: int) -> None:
        """Reset every core; a launch starts at the current clock reading."""
        super().reset(entry_pc)
        self.launch_start = self.clock.now
        self._idle_streak = 0

    @property
    def cycle(self) -> int:
        """Cycles into the current launch: the unit of :meth:`run`'s result,
        ``pause_at``, ``max_cycles`` and ``SimulationStalled.cycle``."""
        return self.clock.now - self.launch_start

    progress = cycle

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
        """Advance the whole processor by one cycle; ``_issued`` keeps the most
        any core reported (``READY_NEXT`` > ``ISSUED`` > ``NOT_ISSUED``).

        ``reset(entry_pc)`` followed by ``while not done: tick()`` is the
        cycle-by-cycle reference that :meth:`run`'s fast-forward must equal.
        """
        self.clock.now += 1
        self.memsys.tick()
        issued = NOT_ISSUED
        for core in self.cores:
            state = core.tick()
            if state > issued:
                issued = state
        self._issued = issued

    def run(
        self,
        entry_pc: int | None = None,
        *,
        max_cycles: int | None = None,
        max_instructions: int | None = None,
        pause_at: int | None = None,
    ) -> int:
        """Run to completion; returns the launch's elapsed cycle count (both
        budgets and ``pause_at`` count from the start of the launch too;
        ``max_cycles`` defaults to :data:`DEFAULT_MAX_CYCLES`).

        ``pause_at`` pauses the run once ``cycle`` reaches that value (a
        cycle boundary, so every in-flight transaction is at a well-defined
        point).  A paused run is continued with another ``run()`` call (no
        ``entry_pc``).
        """
        if entry_pc is not None:
            self.reset(entry_pc)
        max_cycles = max_cycles or DEFAULT_MAX_CYCLES
        # Each ticked cycle reads done / cycle from these, not the properties.
        cores, clock, memsys = self.cores, self.clock, self.memsys
        start = self.launch_start
        idle_cycles = self._idle_streak
        issued = NOT_ISSUED
        # Lane-plan execution legitimately produces IEEE invalid/overflow
        # conditions inside masked numpy expressions (the scalar reference
        # silences them per operation); silence them for the whole run.
        with np.errstate(all="ignore"):
            # After READY_NEXT a warp is active, so the processor is not done.
            # Core 0 alone first: it has work left on almost every tick.
            while issued == READY_NEXT or not (
                cores[0].done and all(core.done for core in cores) and not memsys.busy
            ):
                if pause_at is not None and clock.now - start >= pause_at:
                    break
                self.tick()
                issued = self._issued
                cycle = clock.now - start
                if cycle >= max_cycles:
                    retired = self.total_instructions
                    raise SimulationLimitExceeded("cycles", max_cycles, retired, cycle)
                # ``>=`` mirrors the functional Processor's budget semantics,
                # so LaunchOptions(max_instructions=N) behaves identically on
                # both driver families.
                if max_instructions is not None:
                    retired = self.total_instructions
                    if retired >= max_instructions:
                        raise SimulationLimitExceeded(
                            "instructions", max_instructions, retired, cycle
                        )
                # Deadlock watchdog: no instruction retired for a long stretch while
                # cores still have active wavefronts and no memory traffic is pending.
                if not issued and not memsys.busy:
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
                if issued == READY_NEXT:
                    continue  # that core's next event is ``now + 1``: nothing to skip
                # Event-driven fast-forward: jump over provably idle cycle
                # runs instead of ticking through them (bit-identical to a
                # ``tick()`` loop in cycles, counters and expanded traces).
                skip = self._idle_cycles_to_skip(max_cycles - cycle)
                if skip and pause_at is not None:
                    # Never jump past the requested pause point: the
                    # skipped cycles are provably idle either way, so
                    # capping changes nothing but where the run stops.
                    skip = min(skip, pause_at - cycle)
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
        self._idle_streak = idle_cycles
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
        """Advance the whole processor ``cycles`` idle cycles in one jump (the
        cores take their L1s through it before the memory subsystem checks
        every level)."""
        self.clock.now += cycles
        bus = self.trace
        if bus is not None and any(core._replayed_repeat() for core in self.cores):
            # A ticked run emits every cycle of a window only drain repeats
            # skip, unmarked and cycle by cycle across the cores.
            with bus.in_cycle_order():
                for core in self.cores:
                    core.skip_idle(cycles, marked=False)
        else:
            for core in self.cores:
                core.skip_idle(cycles)
        self.memsys.skip_idle(cycles)

    # -- metrics -------------------------------------------------------------------------

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
