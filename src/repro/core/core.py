"""The functional SIMT core.

``SimtCore`` composes the warp state, the warp-level emulator, the barrier
table, the CSR file and the texture unit into a core that executes one warp
instruction at a time (:meth:`SimtCore.step_warp`, with its counters and
``instret``).  Which warp steps when is the business of the functional
processors in :mod:`repro.core.processor`; the cycle-level TimingCore
embeds the core for its architectural state.

``VectorSimtCore`` is the same core executing whole-warp lane vectors
(:class:`~repro.core.vector_emulator.VectorWarpEmulator`): the core both
drivers run, with ``SimtCore`` as its per-thread oracle.
"""

from __future__ import annotations

import weakref
from typing import Any

import numpy as np

from repro.common.bitutils import to_uint32
from repro.common.config import VortexConfig
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, CHILDREN, Stateful
from repro.core.barrier import PARTICIPANTS, BarrierTable, is_global_barrier
from repro.core.emulator import WarpEmulator
from repro.core.vector_emulator import VectorWarpEmulator
from repro.core.warp import NUM_REGISTERS, Warp
from repro.isa.instructions import ExecUnit
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
    #: processor level, the processor backref is topology, the emulator's
    #: decode cache, blocks and window caches derive from memory contents,
    #: and the register stacks serialize through the warps' register files (views).
    SNAPSHOT_EXCLUDED = frozenset(
        {"core_id", "config", "memory", "processor", "emulator", "int_stack", "fp_stack",
         "block_cache", "private_pcs", "window_lengths"}
    )

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
        # One register stack per class, uint32[register, warp, thread]: each
        # warp's file is its [:, warp_id] view, so one register of a run of
        # adjacent warps is one contiguous block.
        threads = core_cfg.num_threads
        shape = (NUM_REGISTERS, core_cfg.num_warps, threads)
        self.int_stack = np.zeros(shape, dtype=np.uint32)
        self.fp_stack = np.zeros(shape, dtype=np.uint32)
        self.warps: list[Warp] = [
            Warp(w, threads, core_cfg.ipdom_depth, self.int_stack[:, w], self.fp_stack[:, w])
            for w in range(core_cfg.num_warps)
        ]
        #: (pc, first warp, warp count) -> block over that run of warps from
        #: pc, or None when the instruction executes warp by warp (built by
        #: the vectorized engine; dropped with its decode cache).
        self.block_cache: dict[tuple[int, int, int], Any] = {}
        #: pc -> whether its instruction is private to its warp, and a warp
        #: PC layout -> how many rounds a private window from it last ran
        #: (the vectorized processor's heuristic; dropped with the decodes).
        self.private_pcs: dict[int, bool] = {}
        self.window_lengths: dict[tuple[int, ...], int] = {}
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

    def invalidate_caches(self) -> None:
        """Drop decode-derived caches (a new program image was loaded)."""
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

    def step_warp(self, warp: Warp) -> None:
        """Execute one instruction of ``warp`` and update counters."""
        result = self.emulator.step(warp)
        self.perf.incr("instructions")
        self.perf.incr("thread_instructions", result.active_thread_count)
        self.csr.retire(1)

    def step_warp_timing(self, warp: Warp) -> tuple[bool, list[int] | None]:
        """Execute one instruction of ``warp`` for the cycle-level core and
        return ``(taken, addresses)``: whether the front end must redirect,
        and the per-request memory addresses in issue order (empty or None
        when there are none).  The timing core counts the issue in its own
        counters; only ``instret`` advances here."""
        result = self.emulator.step(warp)
        self.csr.retire(1)
        return result.taken_branch, result.request_addresses


class VectorSimtCore(SimtCore):
    """One Vortex core executing with lane-parallel (vectorized) semantics."""

    emulator_cls = VectorWarpEmulator
    emulator: VectorWarpEmulator

    def step_warp(self, warp: Warp) -> None:
        """Execute one instruction of ``warp`` through its cached lane plan,
        with the per-thread core's bookkeeping."""
        active = warp.active_count  # counted at issue, charged once it retires
        self.emulator._arch_plan(warp, warp.pc)(warp)
        warp.instructions += 1
        counters = self.perf._counters
        counters["instructions"] += 1
        counters["thread_instructions"] += active
        self.csr.instret += 1

    def step_warp_timing(self, warp: Warp) -> tuple[bool, list[int] | None]:
        """:meth:`SimtCore.step_warp_timing` through the warp's cached lane
        plan.  A load or store reads its lanes' byte addresses before the
        plan commits (a load may overwrite its base register; the word fast
        paths work on page offsets and never build them), ``tex`` returns
        the plan's texel trace, a branch or ``join`` the plan's decision.
        The plan and the decode are looked up once each, in their caches."""
        emulator = self.emulator
        pc = warp.pc
        plan: Any = warp.plan_cache.get(pc) or emulator._arch_plan(warp, pc)
        instr = emulator._decode_cache.get(pc) or emulator.fetch(pc)
        spec = instr.spec
        taken = False
        if spec.is_load or spec.is_store:
            base = warp.regs.int_row(instr.rs1)
            if not warp.full:
                base = base[warp.lanes]
            addresses = (base + np.uint32(to_uint32(instr.imm))).tolist()
            plan(warp)
        elif spec.unit == ExecUnit.TEX:
            addresses = plan(warp)
        else:
            taken = plan(warp) is True or spec.is_jump
            addresses = None
        warp.instructions += 1
        self.csr.instret += 1
        return taken, addresses
