"""The functional SIMT core.

``SimtCore`` composes the warp state, the warp-level emulator, the barrier
table, the CSR file and the texture unit into a core that can run a kernel
to completion at instruction granularity (this is what the FUNCSIM driver
uses, and what the cycle-level TimingCore embeds for its architectural
state).  Multi-core functional execution is provided by
:class:`repro.core.processor.Processor`.

``VectorSimtCore`` is the same core executing whole-warp lane vectors
(:class:`~repro.core.vector_emulator.VectorWarpEmulator`): the core both
drivers run, with ``SimtCore`` as its per-thread oracle.
"""

from __future__ import annotations

import weakref
from typing import Any

from repro.common.config import VortexConfig
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, CHILDREN, Stateful
from repro.core.barrier import PARTICIPANTS, BarrierTable, is_global_barrier
from repro.core.emulator import EmulationError, SimulationLimitExceeded, StepResult, WarpEmulator
from repro.core.vector_emulator import VectorWarpEmulator
from repro.core.warp import Warp
from repro.arch.csr import CsrFile
from repro.texture.unit import TextureUnit


class SimtCore(Stateful):
    """One Vortex core executing at instruction (functional) granularity."""

    #: Emulator to instantiate; :class:`VectorSimtCore` substitutes the vectorized one.
    emulator_cls = WarpEmulator

    #: Barrier participants are this core's warps, encoded as warp ids.
    STATE = {
        "warps": CHILDREN,
        "csr": CHILD,
        "barriers": PARTICIPANTS,
        "perf": CHILD,
        "tex_unit": CHILD._replace(key="tex_perf"),
    }
    #: Construction-time wiring (vxlint VX007): memory serializes at the
    #: processor level, the processor backref is topology, and the
    #: emulator's decode cache derives from memory contents.
    SNAPSHOT_EXCLUDED = frozenset({"core_id", "config", "memory", "processor", "emulator"})

    def __init__(
        self,
        core_id: int,
        config: VortexConfig,
        memory: Any,
        processor: Any = None,
    ):
        self.core_id = core_id
        self.config = config
        self.memory = memory
        # A weak back-reference: a strong one closes the cycle processor →
        # cores → TimingCore.func → processor and leaves every dropped device
        # (caches, MSHRs, DRAM model) waiting for a full garbage collection.
        self.processor = None if processor is None else weakref.proxy(processor)
        core_cfg = config.core
        self.warps: list[Warp] = [
            Warp(warp_id, core_cfg.num_threads, ipdom_depth=core_cfg.ipdom_depth)
            for warp_id in range(core_cfg.num_warps)
        ]
        self.csr = CsrFile(
            core_id=core_id,
            num_warps=core_cfg.num_warps,
            num_threads=core_cfg.num_threads,
            num_cores=config.num_cores,
        )
        self.tex_unit = TextureUnit(memory, config.texture) if config.texture.enabled else None
        self.barriers = BarrierTable(core_cfg.num_barriers)
        self.perf = PerfCounters(f"core{core_id}")
        self.emulator = self.emulator_cls(self)

    # -- lifecycle -----------------------------------------------------------------

    def reset(self, entry_pc: int) -> None:
        """Reset the core: warp 0 / thread 0 starts at ``entry_pc``."""
        for warp in self.warps:
            warp.halt()
            warp.ipdom.clear()
            warp.at_barrier = False
            warp.instructions = 0
        self.warps[0].spawn(entry_pc, tmask=1)
        self.emulator.invalidate_decode_cache()

    # -- checkpoint/restore --------------------------------------------------------------

    def _encode_participant(self, warp: Warp) -> int:
        return warp.warp_id

    def _decode_participant(self, warp_id: int) -> Warp:
        return self.warps[warp_id]

    def after_restore(self) -> None:
        """The restored memory image may hold a different program than the
        decodes and every warp's plans were built against."""
        self.emulator.invalidate_decode_cache()

    # -- callbacks used by the emulator ------------------------------------------------

    def handle_wspawn(self, count: int, pc: int) -> int:
        """Activate wavefronts 1..count-1 at ``pc`` (warp 0 keeps executing)."""
        count = min(count, len(self.warps))
        spawned = 0
        for warp in self.warps[1:count]:
            if not warp.active:
                warp.spawn(pc, tmask=1)
                spawned += 1
        self.perf.incr("wspawns")
        return spawned

    def handle_barrier(self, warp: Warp, barrier_id: int, count: int) -> bool:
        """Handle a ``bar`` execution; returns True when the warp must stall."""
        if is_global_barrier(barrier_id) and self.processor is not None:
            return self.processor.global_barrier_arrive(self, warp, barrier_id, count)
        released = self.barriers.arrive(barrier_id, count, warp)
        if warp in released:
            for released_warp in released:
                released_warp.at_barrier = False
            return False
        warp.at_barrier = True
        self.perf.incr("barrier_stalls")
        return True

    def handle_fence(self) -> None:
        """Memory fence: flush outstanding accesses (no-op at functional level)."""
        self.perf.incr("fences")

    def active_warp_mask(self) -> int:
        """Bitmask of currently active wavefronts (exposed through a CSR)."""
        mask_value = 0
        for warp in self.warps:
            if warp.active:
                mask_value |= 1 << warp.warp_id
        return mask_value

    # -- execution -----------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every wavefront has terminated."""
        return all(not warp.active for warp in self.warps)

    @property
    def deadlocked(self) -> bool:
        """True when wavefronts exist but all of them are stalled at barriers."""
        active = [warp for warp in self.warps if warp.active]
        return bool(active) and all(warp.at_barrier for warp in active)

    def step_warp(self, warp: Warp) -> StepResult:
        """Execute one instruction of ``warp`` and update counters."""
        result = self.emulator.step(warp)
        self.perf.incr("instructions")
        self.perf.incr("thread_instructions", result.active_thread_count)
        self.csr.retire(1)
        return result

    def step_warp_timing(self, warp: Warp) -> Any:
        """Execute one instruction of ``warp`` for the cycle-level core.

        Same bookkeeping as :meth:`step_warp` (per-core counters, ``instret``)
        through the emulator's ``step_timing``: the vectorized emulator runs
        a compiled timing plan and returns a
        :class:`repro.core.vector_emulator.TimingStep`; the per-thread
        emulator returns its :class:`StepResult`, which exposes the same
        ``instr``, ``active_thread_count``, ``taken_branch`` and
        ``request_addresses`` facts.
        """
        step = self.emulator.step_timing(warp)
        self.perf.incr("instructions")
        self.perf.incr("thread_instructions", step.active_thread_count)
        self.csr.retire(1)
        return step

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until all wavefronts terminate; returns instructions executed.

        Wavefronts are interleaved round-robin at instruction granularity so
        that intra-core barriers behave as they do in hardware.
        """
        executed = 0
        while not self.done:
            progressed = False
            for warp in self.warps:
                if not warp.schedulable:
                    continue
                self.step_warp(warp)
                executed += 1
                progressed = True
                if executed >= max_instructions:
                    raise SimulationLimitExceeded(
                        "instructions",
                        max_instructions,
                        f"core {self.core_id} exceeded the instruction limit "
                        f"({max_instructions}); possible runaway kernel",
                    )
            if not progressed:
                if self.deadlocked and self.processor is None:
                    raise EmulationError(
                        f"core {self.core_id} deadlocked: all active wavefronts "
                        "are waiting at barriers"
                    )
                break
        return executed


class VectorSimtCore(SimtCore):
    """One Vortex core executing with lane-parallel (vectorized) semantics."""

    emulator_cls = VectorWarpEmulator
    emulator: VectorWarpEmulator
