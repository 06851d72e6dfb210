"""Warp-level instruction emulation.

``WarpEmulator`` executes one instruction for one warp, updating the warp's
architectural state (registers, PC, thread mask, IPDOM stack) and the
device memory, and returning a :class:`StepResult` describing what happened
— which execution unit the instruction belongs to, the per-thread memory
addresses it touched, whether a branch was taken, whether the warp stalled
on a barrier.  The functional driver uses only the architectural effects;
the cycle-level driver (SIMX) replays the same emulation inside its
pipeline model and uses the :class:`StepResult` to charge latencies, cache
accesses and structural hazards.

Dispatch is through a per-mnemonic handler table precomputed at class
definition time (one dictionary lookup per instruction), not through
per-unit if-chains; the vectorized engine in :mod:`repro.engine` extends
the same class with whole-warp lane plans.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.arch.alu import ALU_OPS, BRANCH_OPS, div_op, mul_op
from repro.arch.fpu import fpu_op
from repro.common.bitutils import sext, to_uint32
from repro.isa.decoder import DecodedInstruction, decode
from repro.isa.instructions import SPEC_BY_MNEMONIC, ExecUnit
from repro.core.warp import Warp
from repro.texture.unit import TexWarpResult

if TYPE_CHECKING:
    from repro.core.core import SimtCore


class EmulationError(Exception):
    """Raised when a warp executes something the model cannot handle."""


class SimulationLimitExceeded(EmulationError):
    """Raised when a simulation hits its configured run limit.

    Shared by the functional drivers (``max_instructions``) and the
    cycle-level SIMX driver (``max_cycles``) so callers can catch one typed
    error regardless of the engine.  ``kind`` is ``"instructions"`` or
    ``"cycles"``; ``limit`` is the configured bound.
    """

    def __init__(self, kind: str, limit: int, message: str | None = None):
        self.kind = kind
        self.limit = limit
        super().__init__(message or f"simulation exceeded the {kind} limit ({limit})")


class SimulationStalled(EmulationError):
    """The cycle-level run retired nothing for ``window`` cycles with no
    memory traffic pending (typically a ``bar`` whose count is never reached).

    ``cores`` holds one :meth:`TimingCore.stall_forensics` dict per core —
    scheduler masks, busy registers per warp, local barrier entries
    ``(barrier, expected, [warp ids])``, pending ifetch/op/MSHR counts;
    ``global_barriers`` the inter-core entries ``(barrier, expected,
    [[core id, warp id], ...])``.
    """

    def __init__(self, cycle: int, window: int, cores: list[dict], global_barriers: list):
        self.cycle = cycle
        self.window = window
        self.cores = cores
        self.global_barriers = global_barriers
        waiting = [
            f"core {core['core']} warps {warps} at barrier {barrier} ({len(warps)}/{expected})"
            for core in cores
            for barrier, expected, warps in core["barriers"]
        ] + [
            f"(core, warp) {pairs} at global barrier {barrier} ({len(pairs)}/{expected})"
            for barrier, expected, pairs in global_barriers
        ]
        super().__init__(
            f"timing simulation made no progress for {window} cycles (at cycle {cycle}); "
            f"waiting: {'; '.join(waiting) or 'no wavefront at any barrier'}"
        )


@dataclass
class MemAccess:
    """One per-thread memory access performed by an instruction."""

    thread: int
    address: int
    size: int
    is_write: bool


@dataclass
class StepResult:
    """Everything the timing model needs to know about one executed instruction."""

    warp_id: int
    pc: int
    next_pc: int
    instr: DecodedInstruction
    tmask: int
    unit: str
    mem_accesses: list[MemAccess] = field(default_factory=list)
    tex_result: TexWarpResult | None = None
    taken_branch: bool = False
    warp_halted: bool = False
    stalled_at_barrier: bool = False
    spawned_warps: int = 0
    divergent_branch: bool = False

    @property
    def active_thread_count(self) -> int:
        return bin(self.tmask).count("1")

    @property
    def mnemonic(self) -> str:
        return self.instr.mnemonic

    @property
    def request_addresses(self) -> list[int]:
        """The per-request memory addresses, in issue order.

        This is the interface the cycle-level core charges cache traffic
        from; the vectorized timing step (:class:`repro.engine.vector_emulator.TimingStep`)
        exposes the same attribute without materializing ``MemAccess`` records.
        """
        return [access.address for access in self.mem_accesses]


#: Load mnemonic -> (access size, signed).  ``lw``/``flw`` are word loads.
_LOAD_SPECS: dict[str, tuple[int, bool]] = {
    "lw": (4, False),
    "flw": (4, False),
    "lh": (2, True),
    "lhu": (2, False),
    "lb": (1, True),
    "lbu": (1, False),
}

#: Store mnemonic -> access size.
_STORE_SPECS: dict[str, int] = {"sw": 4, "fsw": 4, "sh": 2, "sb": 1}


class WarpEmulator:
    """Executes instructions for the warps of one core."""

    def __init__(self, core: SimtCore):
        """``core`` supplies memory, the CSR file, the texture unit, the warp
        list, and the wspawn/barrier callbacks (see :class:`repro.core.core.SimtCore`)."""
        # A weak back-reference (the core owns its emulator): a strong one is
        # a cycle that leaves every dropped core waiting for the collector.
        self.core = weakref.proxy(core)
        self._decode_cache: dict[int, DecodedInstruction] = {}

    # -- fetch / decode -------------------------------------------------------------

    def fetch(self, pc: int) -> DecodedInstruction:
        """Fetch and decode the instruction at ``pc`` (decode results are cached)."""
        cached = self._decode_cache.get(pc)
        if cached is not None:
            return cached
        word = self.core.memory.read_word(pc)
        try:
            instr = decode(word)
        except Exception as exc:
            raise EmulationError(f"cannot decode word {word:#010x} at pc {pc:#x}: {exc}") from exc
        self._decode_cache[pc] = instr
        return instr

    def invalidate_decode_cache(self) -> None:
        """Drop cached decodes (needed if a new program image is loaded)."""
        self._decode_cache.clear()
        for warp in getattr(self.core, "warps", ()):
            warp.plan_cache.clear()
            warp.timing_plan_cache.clear()

    # -- execution --------------------------------------------------------------------

    def step(self, warp: Warp) -> StepResult:
        """Execute the next instruction of ``warp``."""
        if not warp.schedulable:
            raise EmulationError(f"warp {warp.warp_id} is not schedulable")
        pc = warp.pc
        instr = self.fetch(pc)
        result = StepResult(
            warp_id=warp.warp_id,
            pc=pc,
            next_pc=pc + 4,
            instr=instr,
            tmask=warp.tmask,
            unit=instr.spec.unit,
        )
        handler = self._MNEMONIC_HANDLERS.get(instr.mnemonic)
        if handler is None:
            raise EmulationError(f"unhandled instruction {instr.mnemonic}")
        handler(self, warp, instr, result)
        warp.pc = result.next_pc
        warp.instructions += 1
        return result

    #: What :meth:`SimtCore.step_warp_timing` calls: a ``StepResult`` already
    #: carries every fact the cycle-level core charges from.
    step_timing = step

    # -- operand helpers ----------------------------------------------------------------

    @staticmethod
    def _read(warp: Warp, thread: int, index: int, floating: bool) -> int:
        if floating:
            return warp.regs.read_float(thread, index)
        return warp.regs.read_int(thread, index)

    @staticmethod
    def _write(warp: Warp, thread: int, index: int, value: int, floating: bool) -> None:
        if floating:
            warp.regs.write_float(thread, index, value)
        else:
            warp.regs.write_int(thread, index, value)

    def _write_rd(self, warp: Warp, instr: DecodedInstruction, thread: int, value: int) -> None:
        self._write(warp, thread, instr.rd, value, instr.spec.rd_float)

    def _first_active_thread(self, warp: Warp) -> int:
        active = warp.active_threads()
        if not active:
            raise EmulationError(f"warp {warp.warp_id} has no active threads")
        return active[0]

    # -- ALU-class handlers ----------------------------------------------------------------

    def _exec_lui(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        value = to_uint32(instr.imm)
        for thread in warp.active_threads():
            self._write_rd(warp, instr, thread, value)

    def _exec_auipc(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        value = to_uint32(result.pc + instr.imm)
        for thread in warp.active_threads():
            self._write_rd(warp, instr, thread, value)

    def _exec_alu_imm(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        op = ALU_OPS[instr.mnemonic]
        imm = to_uint32(instr.imm)
        regs = warp.regs
        rs1 = instr.rs1
        for thread in warp.active_threads():
            self._write_rd(warp, instr, thread, op(regs.read_int(thread, rs1), imm))

    def _exec_alu_reg(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        op = ALU_OPS[instr.mnemonic]
        regs = warp.regs
        rs1, rs2 = instr.rs1, instr.rs2
        for thread in warp.active_threads():
            value = op(regs.read_int(thread, rs1), regs.read_int(thread, rs2))
            self._write_rd(warp, instr, thread, value)

    def _exec_mul(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        regs = warp.regs
        for thread in warp.active_threads():
            value = mul_op(
                instr.mnemonic, regs.read_int(thread, instr.rs1), regs.read_int(thread, instr.rs2)
            )
            self._write_rd(warp, instr, thread, value)

    def _exec_div(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        regs = warp.regs
        for thread in warp.active_threads():
            value = div_op(
                instr.mnemonic, regs.read_int(thread, instr.rs1), regs.read_int(thread, instr.rs2)
            )
            self._write_rd(warp, instr, thread, value)

    def _exec_branch(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        op = BRANCH_OPS[instr.mnemonic]
        regs = warp.regs
        decisions = []
        for thread in warp.active_threads():
            decisions.append(
                op(regs.read_int(thread, instr.rs1), regs.read_int(thread, instr.rs2))
            )
        taken = decisions[0]
        if any(decision != taken for decision in decisions):
            result.divergent_branch = True
            self.core.perf.incr("divergent_branches")
        if taken:
            result.next_pc = to_uint32(result.pc + instr.imm)
            result.taken_branch = True

    def _exec_jump(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        return_address = to_uint32(result.pc + 4)
        if instr.mnemonic == "jal":
            result.next_pc = to_uint32(result.pc + instr.imm)
        else:  # jalr
            thread = self._first_active_thread(warp)
            base = warp.regs.read_int(thread, instr.rs1)
            result.next_pc = to_uint32(base + instr.imm) & ~1
        result.taken_branch = True
        if instr.rd != 0:
            for thread in warp.active_threads():
                self._write_rd(warp, instr, thread, return_address)

    # -- FPU ---------------------------------------------------------------------------------

    def _exec_fpu(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        for thread in warp.active_threads():
            rs1 = self._read(warp, thread, instr.rs1, instr.spec.rs1_float)
            rs2 = self._read(warp, thread, instr.rs2, instr.spec.rs2_float)
            rs3 = self._read(warp, thread, instr.rs3, instr.spec.rs3_float)
            value = fpu_op(instr.mnemonic, rs1, rs2, rs3)
            self._write_rd(warp, instr, thread, value)

    # -- LSU ---------------------------------------------------------------------------------

    def _exec_load(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        memory = self.core.memory
        size, signed = _LOAD_SPECS[instr.mnemonic]
        for thread in warp.active_threads():
            base = warp.regs.read_int(thread, instr.rs1)
            address = to_uint32(base + instr.imm)
            if size == 4:
                value = memory.read_word(address)
            elif size == 2:
                value = memory.read_half(address)
            else:
                value = memory.read_byte(address)
            if signed:
                value = to_uint32(sext(value, size * 8))
            self._write_rd(warp, instr, thread, value)
            result.mem_accesses.append(
                MemAccess(thread=thread, address=address, size=size, is_write=False)
            )

    def _exec_store(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        memory = self.core.memory
        size = _STORE_SPECS[instr.mnemonic]
        for thread in warp.active_threads():
            base = warp.regs.read_int(thread, instr.rs1)
            address = to_uint32(base + instr.imm)
            value = self._read(warp, thread, instr.rs2, instr.spec.rs2_float)
            if size == 4:
                memory.write_word(address, value)
            elif size == 2:
                memory.write_half(address, value)
            else:
                memory.write_byte(address, value)
            result.mem_accesses.append(
                MemAccess(thread=thread, address=address, size=size, is_write=True)
            )

    # -- SFU ---------------------------------------------------------------------------------

    def _exec_tmc(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        thread = self._first_active_thread(warp)
        count = warp.regs.read_int(thread, instr.rs1)
        warp.set_thread_count(count)
        if not warp.active:
            result.warp_halted = True

    def _exec_wspawn(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        thread = self._first_active_thread(warp)
        count = warp.regs.read_int(thread, instr.rs1)
        target_pc = warp.regs.read_int(thread, instr.rs2)
        result.spawned_warps = self.core.handle_wspawn(count, target_pc)

    def _exec_bar(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        thread = self._first_active_thread(warp)
        barrier_id = warp.regs.read_int(thread, instr.rs1)
        count = warp.regs.read_int(thread, instr.rs2)
        result.stalled_at_barrier = self.core.handle_barrier(warp, barrier_id, count)

    def _exec_fence(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        self.core.handle_fence()

    def _exec_ecall(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        warp.halt()
        result.warp_halted = True

    def _exec_csr(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        csr_file = self.core.csr
        mnemonic = instr.mnemonic
        immediate_form = mnemonic.endswith("i")
        warp_mask = self.core.active_warp_mask() if hasattr(self.core, "active_warp_mask") else 0
        first_thread = self._first_active_thread(warp)

        def operand(thread: int) -> int:
            if immediate_form:
                return instr.imm & 0x1F
            return warp.regs.read_int(thread, instr.rs1)

        old_values = {}
        for thread in warp.active_threads():
            old_values[thread] = csr_file.read(
                instr.csr,
                thread_id=thread,
                warp_id=warp.warp_id,
                thread_mask=warp.tmask,
                warp_mask=warp_mask,
            )

        write_value = operand(first_thread)
        base = old_values[first_thread]
        if mnemonic in ("csrrw", "csrrwi"):
            csr_file.write(instr.csr, write_value)
        elif mnemonic in ("csrrs", "csrrsi"):
            if write_value:
                csr_file.write(instr.csr, base | write_value)
        elif mnemonic in ("csrrc", "csrrci"):
            if write_value:
                csr_file.write(instr.csr, base & ~write_value)

        if instr.rd != 0:
            for thread in warp.active_threads():
                self._write(warp, thread, instr.rd, old_values[thread], False)

    def _exec_split(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        original = warp.tmask
        taken_mask = 0
        for thread in warp.active_threads():
            predicate = warp.regs.read_int(thread, instr.rs1)
            if predicate:
                taken_mask |= 1 << thread
        not_taken_mask = original & ~taken_mask
        warp.ipdom.push(original, pc=None)
        if taken_mask and not_taken_mask:
            warp.ipdom.push(not_taken_mask, pc=result.pc + 4)
            warp.set_tmask(taken_mask)
            self.core.perf.incr("divergent_splits")
        else:
            self.core.perf.incr("uniform_splits")

    def _exec_join(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        entry = warp.ipdom.pop()
        warp.set_tmask(entry.tmask)
        if not entry.is_fallthrough:
            result.next_pc = entry.pc
            result.taken_branch = True

    # -- TEX ---------------------------------------------------------------------------------

    def _exec_tex(self, warp: Warp, instr: DecodedInstruction, result: StepResult) -> None:
        tex_unit = self.core.tex_unit
        if tex_unit is None:
            raise EmulationError("tex executed but the core has no texture unit")
        operands: list[tuple[int, int, int] | None] = []
        for thread in range(warp.num_threads):
            if (warp.tmask >> thread) & 1:
                operands.append(
                    (
                        warp.regs.read_float(thread, instr.rs1),
                        warp.regs.read_float(thread, instr.rs2),
                        warp.regs.read_float(thread, instr.rs3),
                    )
                )
            else:
                operands.append(None)
        tex_result = tex_unit.sample_warp(self.core.csr, instr.tex_stage, operands)
        for thread in range(warp.num_threads):
            if (warp.tmask >> thread) & 1:
                warp.regs.write_int(thread, instr.rd, tex_result.colors[thread])
        result.tex_result = tex_result
        for address in tex_result.unique_addresses:
            result.mem_accesses.append(
                MemAccess(thread=0, address=address, size=4, is_write=False)
            )

    # -- handler table -----------------------------------------------------------------------

    @classmethod
    def _build_handler_table(cls) -> dict[str, Callable]:
        """Precompute the mnemonic -> handler table from the ISA spec table."""
        special = {
            "lui": cls._exec_lui,
            "auipc": cls._exec_auipc,
            "jal": cls._exec_jump,
            "jalr": cls._exec_jump,
            "tmc": cls._exec_tmc,
            "wspawn": cls._exec_wspawn,
            "split": cls._exec_split,
            "join": cls._exec_join,
            "bar": cls._exec_bar,
            "fence": cls._exec_fence,
            "ecall": cls._exec_ecall,
        }
        table: dict[str, Callable] = {}
        for mnemonic, spec in SPEC_BY_MNEMONIC.items():
            if mnemonic in special:
                table[mnemonic] = special[mnemonic]
            elif spec.is_branch:
                table[mnemonic] = cls._exec_branch
            elif spec.is_load:
                table[mnemonic] = cls._exec_load
            elif spec.is_store:
                table[mnemonic] = cls._exec_store
            elif spec.group == "Zicsr":
                table[mnemonic] = cls._exec_csr
            elif spec.unit in (ExecUnit.FPU, ExecUnit.FDIV):
                table[mnemonic] = cls._exec_fpu
            elif spec.unit == ExecUnit.MUL:
                table[mnemonic] = cls._exec_mul
            elif spec.unit == ExecUnit.DIV:
                table[mnemonic] = cls._exec_div
            elif spec.unit == ExecUnit.TEX:
                table[mnemonic] = cls._exec_tex
            elif mnemonic in ALU_OPS:
                if spec.fmt.value == "I":
                    table[mnemonic] = cls._exec_alu_imm
                else:
                    table[mnemonic] = cls._exec_alu_reg
            else:  # pragma: no cover - every spec entry is classified above
                raise EmulationError(f"no handler for mnemonic {mnemonic}")
        return table

    _MNEMONIC_HANDLERS: dict[str, Callable] = {}


WarpEmulator._MNEMONIC_HANDLERS = WarpEmulator._build_handler_table()
