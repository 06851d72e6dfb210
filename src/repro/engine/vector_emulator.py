"""Lane-parallel warp emulation.

``VectorWarpEmulator`` executes one instruction for *all* active lanes of a
warp with a handful of numpy operations instead of a per-thread Python
loop, following the SIMT-lane organization of the Vortex microarchitecture:
one architectural register is one contiguous lane vector
(:meth:`repro.core.warp.RegisterFile.int_row`), and the thread mask selects
which lanes an operation commits.

Execution goes through per-PC *plans*: the first time a warp reaches a PC,
the instruction is decoded once and specialized into a closure that has the
operand rows, the immediates and the vector op already bound.  Subsequent
visits are a dictionary lookup plus one closure call — the per-mnemonic
handler-table idea of the scalar emulator taken to its limit.

Architectural results are bit-identical to the scalar
:class:`~repro.core.emulator.WarpEmulator` (the differential test in
``tests/test_engine_differential.py`` holds both engines to that); rare
instructions (CSR access, barriers, ``tmc``/``wspawn``, texture fetches)
reuse the scalar per-mnemonic handlers directly.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.arch.alu import (
    ALU_VECTOR_OPS,
    BRANCH_VECTOR_OPS,
    DIV_VECTOR_OPS,
    MUL_VECTOR_OPS,
)
from repro.arch.fpu import FPU_VECTOR_OPS
from repro.common.bitutils import to_uint32
from repro.core.emulator import StepResult, WarpEmulator
from repro.isa.decoder import DecodedInstruction
from repro.isa.instructions import ExecUnit

#: A plan executes one instruction for the warp it was built for (registers,
#: memory, PC).  It binds that warp's register rows but takes the warp itself
#: as its argument: a closure over the warp, cached in the warp's own
#: ``plan_cache``, is a reference cycle that keeps a dropped device (and its
#: ``MainMemory``) alive until a full garbage collection.
Plan = Callable[[Any], None]

#: A timing plan additionally returns ``(taken_branch, request_addresses)``.
TimingPlan = Callable[[Any], tuple]


class TimingStep:
    """What the cycle-level core needs to know about one lane-plan execution.

    The lightweight counterpart of :class:`~repro.core.emulator.StepResult`:
    the decoded instruction (unit, destination, latency class), the number of
    active lanes at issue, whether the front end must redirect, and — for
    LSU/TEX instructions — the per-request memory addresses in the exact
    order the scalar emulator would have produced them.
    """

    __slots__ = ("instr", "active_thread_count", "taken_branch", "request_addresses")

    def __init__(
        self,
        instr: DecodedInstruction,
        active_thread_count: int,
        taken_branch: bool,
        request_addresses,
    ):
        self.instr = instr
        self.active_thread_count = active_thread_count
        self.taken_branch = taken_branch
        self.request_addresses = request_addresses


def _sext_vec(values: np.ndarray, sign_bit: int) -> np.ndarray:
    """Sign-extend ``sign_bit``-wide lane values inside uint32 arithmetic."""
    bias = np.uint32(1 << (sign_bit - 1))
    return (np.bitwise_xor(values, bias) - bias).astype(np.uint32)


class VectorWarpEmulator(WarpEmulator):
    """Executes instructions for the warps of one core, one lane vector at a time.

    Plans execute exactly one instruction — never fused blocks — so the
    cross-warp round-robin interleaving of memory accesses in
    :class:`~repro.engine.vector_core.VectorProcessor`'s loop matches the
    scalar engine exactly (kernels like bfs communicate through memory
    flags and observe that order).
    """

    # -- plan construction -------------------------------------------------------------

    def _build_plan(self, warp, pc: int) -> Plan:
        instr = self.fetch(pc)
        mnemonic = instr.mnemonic
        spec = instr.spec

        if spec.is_branch:
            return self._plan_branch(warp, pc, instr)
        if spec.is_load:
            return self._plan_load(warp, pc, instr)
        if spec.is_store:
            return self._plan_store(warp, pc, instr)
        if mnemonic in ("lui", "auipc"):
            value = to_uint32(instr.imm if mnemonic == "lui" else pc + instr.imm)
            return self._plan_broadcast(warp, pc, instr.rd, value)
        if mnemonic == "jal":
            return self._plan_jal(warp, pc, instr)
        if mnemonic == "jalr":
            return self._plan_jalr(warp, pc, instr)
        if mnemonic in ALU_VECTOR_OPS:
            if spec.fmt.value == "I":
                return self._plan_alu_imm(warp, pc, instr)
            return self._plan_binary(warp, pc, instr, ALU_VECTOR_OPS[mnemonic])
        if mnemonic in MUL_VECTOR_OPS:
            return self._plan_binary(warp, pc, instr, MUL_VECTOR_OPS[mnemonic])
        if mnemonic in DIV_VECTOR_OPS:
            return self._plan_binary(warp, pc, instr, DIV_VECTOR_OPS[mnemonic])
        if spec.unit in (ExecUnit.FPU, ExecUnit.FDIV) and mnemonic in FPU_VECTOR_OPS:
            return self._plan_fpu(warp, pc, instr)
        if mnemonic == "split":
            return self._plan_split(warp, pc, instr)
        if mnemonic == "join":
            return self._plan_join(warp, pc)
        if mnemonic == "tex":
            return self._plan_tex(warp, pc, instr)
        # CSR access, tmc/wspawn/bar, fence, ecall: reuse the scalar
        # per-mnemonic handlers (rare instructions).
        return self._plan_scalar(warp, pc, instr)

    # -- ALU / MUL / DIV ---------------------------------------------------------------

    def _plan_broadcast(self, warp, pc: int, rd: int, value: int) -> Plan:
        next_pc = pc + 4
        if rd == 0:
            def run(warp) -> None:
                warp.pc = next_pc
            return run
        rd_row = warp.regs.int_row(rd)
        const = np.uint32(value)

        def run(warp) -> None:
            if warp.full:
                rd_row[:] = const
            else:
                rd_row[warp.lanes] = const
            warp.pc = next_pc

        return run

    def _plan_alu_imm(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        mnemonic = instr.mnemonic
        op = ALU_VECTOR_OPS[mnemonic]
        rs1_row = warp.regs.int_row(instr.rs1)
        imm = np.uint32(to_uint32(instr.imm))
        next_pc = pc + 4
        rd = instr.rd
        if rd == 0:
            def run(warp) -> None:
                warp.pc = next_pc
            return run
        rd_row = warp.regs.int_row(rd)

        # Immediate shift amounts are static: pre-mask them so the shifts
        # run as plain in-place ufuncs.
        if mnemonic in ("slli", "srli"):
            op = np.left_shift if mnemonic == "slli" else np.right_shift
            imm = np.uint32(instr.imm & 0x1F)
        elif mnemonic == "srai":
            shamt = np.int32(instr.imm & 0x1F)
            rs1_signed = rs1_row.view(np.int32)
            rd_signed = rd_row.view(np.int32)

            def run(warp) -> None:
                if warp.full:
                    np.right_shift(rs1_signed, shamt, out=rd_signed)
                else:
                    lanes = warp.lanes
                    rd_signed[lanes] = np.right_shift(rs1_signed[lanes], shamt)
                warp.pc = next_pc

            return run

        if isinstance(op, np.ufunc):
            # Plain dtype-preserving ufunc: write the full-mask result in
            # place (no temporary).
            def run(warp) -> None:
                if warp.full:
                    op(rs1_row, imm, out=rd_row)
                else:
                    lanes = warp.lanes
                    rd_row[lanes] = op(rs1_row[lanes], imm)
                warp.pc = next_pc

            return run

        def run(warp) -> None:
            if warp.full:
                rd_row[:] = op(rs1_row, imm)
            else:
                lanes = warp.lanes
                rd_row[lanes] = op(rs1_row[lanes], imm)
            warp.pc = next_pc

        return run

    def _plan_binary(self, warp, pc: int, instr: DecodedInstruction, op) -> Plan:
        rs1_row = warp.regs.int_row(instr.rs1)
        rs2_row = warp.regs.int_row(instr.rs2)
        next_pc = pc + 4
        rd = instr.rd
        if rd == 0:
            def run(warp) -> None:
                warp.pc = next_pc
            return run
        rd_row = warp.regs.int_row(rd)

        if isinstance(op, np.ufunc):
            def run(warp) -> None:
                if warp.full:
                    op(rs1_row, rs2_row, out=rd_row)
                else:
                    lanes = warp.lanes
                    rd_row[lanes] = op(rs1_row[lanes], rs2_row[lanes])
                warp.pc = next_pc

            return run

        def run(warp) -> None:
            if warp.full:
                rd_row[:] = op(rs1_row, rs2_row)
            else:
                lanes = warp.lanes
                rd_row[lanes] = op(rs1_row[lanes], rs2_row[lanes])
            warp.pc = next_pc

        return run

    # -- branches / jumps --------------------------------------------------------------

    def _plan_branch(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        """Conditional branch plan.

        The closure returns the taken decision — ignored by the functional
        execution loop, consumed by the timing wrapper
        (:meth:`_timing_plan_branch`) so there is exactly one compiled
        branch semantics shared by both paths.
        """
        mnemonic = instr.mnemonic
        rs1_row = warp.regs.int_row(instr.rs1)
        rs2_row = warp.regs.int_row(instr.rs2)
        target = to_uint32(pc + instr.imm)
        next_pc = pc + 4
        perf = self.core.perf
        # Signed comparisons reinterpret the rows once at build time; the
        # masked path re-derives the comparator from the generic table.
        if mnemonic in ("blt", "bge"):
            full_lhs = rs1_row.view(np.int32)
            full_rhs = rs2_row.view(np.int32)
            full_cmp = np.less if mnemonic == "blt" else np.greater_equal
        else:
            full_lhs = rs1_row
            full_rhs = rs2_row
            full_cmp = BRANCH_VECTOR_OPS[mnemonic]
        masked_cmp = BRANCH_VECTOR_OPS[mnemonic]

        def run(warp) -> bool:
            if warp.full:
                decisions = full_cmp(full_lhs, full_rhs)
            else:
                lanes = warp.lanes
                decisions = masked_cmp(rs1_row[lanes], rs2_row[lanes])
            votes = np.count_nonzero(decisions)
            if votes == decisions.shape[0]:
                taken = True
            elif votes == 0:
                taken = False
            else:
                # The warp follows the first active thread, as in the scalar
                # emulator; the divergence only shows up in the counters.
                taken = bool(decisions[0])
                perf.incr("divergent_branches")
            warp.pc = target if taken else next_pc
            return taken

        return run

    def _plan_jal(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        target = to_uint32(pc + instr.imm)
        return_address = np.uint32(to_uint32(pc + 4))
        rd = instr.rd
        if rd == 0:
            def run(warp) -> None:
                warp.pc = target
            return run
        rd_row = warp.regs.int_row(rd)

        def run(warp) -> None:
            if warp.full:
                rd_row[:] = return_address
            else:
                rd_row[warp.lanes] = return_address
            warp.pc = target

        return run

    def _plan_jalr(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        rs1_row = warp.regs.int_row(instr.rs1)
        imm = instr.imm
        return_address = np.uint32(to_uint32(pc + 4))
        rd = instr.rd
        rd_row = warp.regs.int_row(rd) if rd else None

        def run(warp) -> None:
            base = int(rs1_row[warp.lanes[0]]) if instr.rs1 else 0
            if rd_row is not None:
                if warp.full:
                    rd_row[:] = return_address
                else:
                    rd_row[warp.lanes] = return_address
            warp.pc = to_uint32(base + imm) & ~1

        return run

    # -- floating point ----------------------------------------------------------------

    #: Arithmetic FPU ops specialized with prebuilt float32 row views:
    #: mnemonic -> (wide, full-mask implementation over float32 lanes).
    #: ``wide`` ops compute through an exact float64 product first.
    _FPU_F32_FULL = {
        "fadd.s": (False, np.add),
        "fsub.s": (False, np.subtract),
        "fmul.s": (False, np.multiply),
        "fmadd.s": (True, lambda a, b, c: np.multiply(a, b, dtype=np.float64) + c),
        "fmsub.s": (True, lambda a, b, c: np.multiply(a, b, dtype=np.float64) - c),
        "fnmsub.s": (True, lambda a, b, c: c - np.multiply(a, b, dtype=np.float64)),
        "fnmadd.s": (
            True,
            lambda a, b, c: np.negative(np.multiply(a, b, dtype=np.float64)) - c,
        ),
    }

    def _plan_fpu(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        mnemonic = instr.mnemonic
        op = FPU_VECTOR_OPS[mnemonic]
        spec = instr.spec
        regs = warp.regs
        rs1_row = regs.fp_row(instr.rs1) if spec.rs1_float else regs.int_row(instr.rs1)
        rs2_row = regs.fp_row(instr.rs2) if spec.rs2_float else regs.int_row(instr.rs2)
        rs3_row = regs.fp_row(instr.rs3) if spec.rs3_float else regs.int_row(instr.rs3)
        next_pc = pc + 4
        rd = instr.rd
        writes_int_rd = not spec.rd_float
        if writes_int_rd and rd == 0:
            def run(warp) -> None:
                warp.pc = next_pc
            return run
        rd_row = regs.fp_row(rd) if spec.rd_float else regs.int_row(rd)

        special = self._FPU_F32_FULL.get(mnemonic)
        if special is not None:
            from repro.arch.fpu import _round_bits

            wide, fast = special
            lhs32 = rs1_row.view(np.float32)
            rhs32 = rs2_row.view(np.float32)
            acc32 = rs3_row.view(np.float32)

            if wide:
                def run(warp) -> None:
                    if warp.full:
                        result = fast(lhs32, rhs32, acc32).astype(np.float32)
                        rd_row[:] = _round_bits(result)
                    else:
                        lanes = warp.lanes
                        rd_row[lanes] = op(rs1_row[lanes], rs2_row[lanes], rs3_row[lanes])
                    warp.pc = next_pc
            else:
                def run(warp) -> None:
                    if warp.full:
                        rd_row[:] = _round_bits(fast(lhs32, rhs32))
                    else:
                        lanes = warp.lanes
                        rd_row[lanes] = op(rs1_row[lanes], rs2_row[lanes], rs3_row[lanes])
                    warp.pc = next_pc

            return run

        def run(warp) -> None:
            if warp.full:
                rd_row[:] = op(rs1_row, rs2_row, rs3_row)
            else:
                lanes = warp.lanes
                rd_row[lanes] = op(rs1_row[lanes], rs2_row[lanes], rs3_row[lanes])
            warp.pc = next_pc

        return run

    # -- loads / stores ----------------------------------------------------------------

    def _plan_load(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        memory = self.core.memory
        regs = warp.regs
        mnemonic = instr.mnemonic
        rs1_row = regs.int_row(instr.rs1)
        imm = np.uint32(to_uint32(instr.imm))
        next_pc = pc + 4
        rd = instr.rd
        rd_float = instr.spec.rd_float
        rd_row = (regs.fp_row(rd) if rd_float else regs.int_row(rd)) if (rd or rd_float) else None
        if mnemonic in ("lw", "flw"):
            return self._plan_word_load(warp, memory, rs1_row, rd_row, imm, next_pc)
        if mnemonic in ("lh", "lhu"):
            gather, sign_bit = memory.gather_halves, 16 if mnemonic == "lh" else 0
        elif mnemonic in ("lb", "lbu"):
            gather, sign_bit = memory.gather_bytes, 8 if mnemonic == "lb" else 0
        else:
            from repro.core.emulator import EmulationError

            raise EmulationError(f"unhandled load {mnemonic}")

        def run(warp) -> None:
            if warp.full:
                values = gather(rs1_row + imm)
                if sign_bit:
                    values = _sext_vec(values, sign_bit)
                if rd_row is not None:
                    rd_row[:] = values
            else:
                lanes = warp.lanes
                values = gather(rs1_row[lanes] + imm)
                if sign_bit:
                    values = _sext_vec(values, sign_bit)
                if rd_row is not None:
                    rd_row[lanes] = values
            warp.pc = next_pc

        return run

    @staticmethod
    def _plan_word_load(warp, memory, rs1_row, rd_row, imm, next_pc) -> Plan:
        """Word load with the page cursor inlined.

        The steady-state full-mask path is one add (the immediate and the
        cached page base fold into a single constant), one OR-reduction
        validating page residency and alignment at once, and one ``take``.
        Keep the residency/alignment test and access accounting in sync
        with :meth:`repro.mem.memory.WordCursor.gather` — this is that
        fast path inlined (measured: the extra call is significant here).
        """
        from repro.mem.memory import PAGE_SIZE

        cursor = memory.word_cursor()
        # state = [imm - page_start] — rebiased whenever the cursor re-anchors.
        state = [None]

        def run(warp) -> None:
            if warp.full:
                biased = state[0]
                if biased is not None:
                    relative = rs1_row + biased
                    packed = int(np.bitwise_or.reduce(relative))
                    if packed < PAGE_SIZE and not (packed & 3):
                        memory.reads += relative.shape[0]
                        if rd_row is not None:
                            rd_row[:] = cursor.words.take(relative >> np.uint32(2))
                        warp.pc = next_pc
                        return
                values = cursor.gather(rs1_row + imm)
                state[0] = imm - cursor.page_start
                if rd_row is not None:
                    rd_row[:] = values
            else:
                values = cursor.gather(rs1_row[warp.lanes] + imm)
                state[0] = imm - cursor.page_start
                if rd_row is not None:
                    rd_row[warp.lanes] = values
            warp.pc = next_pc

        return run

    def _plan_store(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        memory = self.core.memory
        regs = warp.regs
        mnemonic = instr.mnemonic
        rs1_row = regs.int_row(instr.rs1)
        src_row = regs.fp_row(instr.rs2) if instr.spec.rs2_float else regs.int_row(instr.rs2)
        imm = np.uint32(to_uint32(instr.imm))
        next_pc = pc + 4
        if mnemonic in ("sw", "fsw"):
            return self._plan_word_store(warp, memory, rs1_row, src_row, imm, next_pc)
        if mnemonic == "sh":
            scatter = memory.scatter_halves
        elif mnemonic == "sb":
            scatter = memory.scatter_bytes
        else:
            from repro.core.emulator import EmulationError

            raise EmulationError(f"unhandled store {mnemonic}")

        def run(warp) -> None:
            if warp.full:
                scatter(rs1_row + imm, src_row)
            else:
                lanes = warp.lanes
                scatter(rs1_row[lanes] + imm, src_row[lanes])
            warp.pc = next_pc

        return run

    @staticmethod
    def _plan_word_store(warp, memory, rs1_row, src_row, imm, next_pc) -> Plan:
        """Word store with the page cursor inlined (see :meth:`_plan_word_load`;
        keep in sync with :meth:`repro.mem.memory.WordCursor.scatter`)."""
        from repro.mem.memory import PAGE_SIZE

        cursor = memory.word_cursor()
        state = [None]

        def run(warp) -> None:
            if warp.full:
                biased = state[0]
                if biased is not None:
                    relative = rs1_row + biased
                    packed = int(np.bitwise_or.reduce(relative))
                    if packed < PAGE_SIZE and not (packed & 3):
                        cursor.words.put(relative >> np.uint32(2), src_row)
                        memory.writes += relative.shape[0]
                        warp.pc = next_pc
                        return
                cursor.scatter(rs1_row + imm, src_row)
                state[0] = imm - cursor.page_start
            else:
                cursor.scatter(rs1_row[warp.lanes] + imm, src_row[warp.lanes])
                state[0] = imm - cursor.page_start
            warp.pc = next_pc

        return run

    # -- texture fetch -----------------------------------------------------------------

    def _plan_tex(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        """Whole-warp ``tex``: the active lanes' (u, v, lod) operand rows go
        through the texture unit's vectorized sampler in one shot.

        Texture state is CSR-programmed and mutable between executions, so
        the plan binds only the operand rows; the CSR block snapshot is
        delegated to :meth:`TextureUnit.state_for`, whose dirty-bit cache
        (keyed on :attr:`CsrFile.tex_epoch`) re-reads the block only after
        a texture CSR write instead of on every warp instruction.
        """
        core = self.core
        if core.tex_unit is None:
            # Keep the scalar handler's error path.
            return self._plan_scalar(warp, pc, instr)
        tex_unit = core.tex_unit
        csr = core.csr
        regs = warp.regs
        u_row = regs.fp_row(instr.rs1)
        v_row = regs.fp_row(instr.rs2)
        lod_row = regs.fp_row(instr.rs3)
        rd = instr.rd
        rd_row = regs.int_row(rd) if rd else None
        stage = instr.tex_stage
        next_pc = pc + 4

        def run(warp) -> None:
            if warp.full:
                colors = tex_unit.sample_warp_vector(csr, stage, u_row, v_row, lod_row)
                if rd_row is not None:
                    rd_row[:] = colors
            else:
                lanes = warp.lanes
                colors = tex_unit.sample_warp_vector(
                    csr, stage, u_row[lanes], v_row[lanes], lod_row[lanes]
                )
                if rd_row is not None:
                    rd_row[lanes] = colors
            warp.pc = next_pc

        return run

    # -- SIMT control ------------------------------------------------------------------

    def _plan_split(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        rs1_row = warp.regs.int_row(instr.rs1)
        next_pc = pc + 4
        perf = self.core.perf

        def run(warp) -> None:
            lanes = warp.lanes
            predicates = rs1_row[lanes] != 0
            taken_mask = int((np.left_shift(np.int64(1), lanes.astype(np.int64))[predicates]).sum())
            original = warp.tmask
            not_taken_mask = original & ~taken_mask
            warp.ipdom.push(original, pc=None)
            if taken_mask and not_taken_mask:
                warp.ipdom.push(not_taken_mask, pc=next_pc)
                warp.set_tmask(taken_mask)
                perf.incr("divergent_splits")
            else:
                perf.incr("uniform_splits")
            warp.pc = next_pc

        return run

    def _plan_join(self, warp, pc: int) -> Plan:
        """``join`` plan; returns True when the pop redirects the front end
        (not the fall-through path) — see :meth:`_plan_branch` on why."""
        next_pc = pc + 4

        def run(warp) -> bool:
            entry = warp.ipdom.pop()
            warp.set_tmask(entry.tmask)
            if entry.is_fallthrough:
                warp.pc = next_pc
                return False
            warp.pc = entry.pc
            return True

        return run

    # -- timing plans (cycle-level SIMX core) -------------------------------------------

    def _arch_plan(self, warp, pc: int) -> Plan:
        """The (cached) architectural plan for ``warp`` at ``pc``."""
        cache = warp.plan_cache
        plan = cache.get(pc)
        if plan is None:
            plan = self._build_plan(warp, pc)
            cache[pc] = plan
        return plan

    def step_timing(self, warp) -> TimingStep:
        """Execute the next instruction of ``warp`` through its timing plan.

        The architectural effects are exactly those of :meth:`step` (the
        timing plans reuse the compiled lane plans); the returned
        :class:`TimingStep` carries the issue facts the cycle-level core
        charges latencies and cache traffic from, in the same order and with
        the same values as the scalar :class:`~repro.core.emulator.StepResult`.
        """
        pc = warp.pc
        cache = warp.timing_plan_cache
        entry = cache.get(pc)
        if entry is None:
            entry = self._build_timing_plan(warp, pc)
            cache[pc] = entry
        instr, run = entry
        active = warp.active_count
        taken, addresses = run(warp)
        warp.instructions += 1
        return TimingStep(instr, active, taken, addresses)

    def _build_timing_plan(self, warp, pc: int):
        instr = self.fetch(pc)
        spec = instr.spec
        mnemonic = instr.mnemonic
        if spec.is_branch or mnemonic == "join":
            run = self._timing_plan_redirecting(warp, pc)
        elif spec.is_load or spec.is_store:
            run = self._timing_plan_memory(warp, pc, instr)
        elif mnemonic in ("jal", "jalr"):
            run = self._timing_plan_taken(warp, pc)
        elif mnemonic == "tex" and self.core.tex_unit is not None:
            run = self._timing_plan_tex(warp, pc, instr)
        else:
            run = self._timing_plan_default(warp, pc)
        return (instr, run)

    def _timing_plan_default(self, warp, pc: int) -> TimingPlan:
        """Wrap the architectural plan of a non-redirecting, non-memory
        instruction (ALU/MUL/DIV/FPU, CSR, SIMT control, scalar fallbacks)."""
        arch_plan = self._arch_plan(warp, pc)

        def run(warp) -> tuple:
            arch_plan(warp)
            return False, None

        return run

    def _timing_plan_taken(self, warp, pc: int) -> TimingPlan:
        """``jal``/``jalr``: the architectural plan plus an unconditional
        front-end redirect (the scalar emulator always flags them taken)."""
        arch_plan = self._arch_plan(warp, pc)

        def run(warp) -> tuple:
            arch_plan(warp)
            return True, None

        return run

    def _timing_plan_redirecting(self, warp, pc: int) -> TimingPlan:
        """Branch/``join``: wrap the (shared, cached) architectural plan,
        whose closure already returns the taken decision."""
        arch_plan = self._arch_plan(warp, pc)

        def run(warp) -> tuple:
            return arch_plan(warp), None

        return run

    def _timing_plan_memory(self, warp, pc: int, instr: DecodedInstruction) -> TimingPlan:
        """Load/store: capture the active lanes' byte addresses (thread
        order, uint32 wraparound — identical to the scalar per-thread trace)
        before the architectural plan commits the accesses.

        The address vector is computed here *in addition to* whatever the
        architectural plan computes internally: the word-load/store fast
        paths work on page-relative offsets and never materialize absolute
        addresses, so sharing would mean slowing the functional engine's
        hottest path to feed the timing model.  One extra lane-vector add
        per memory instruction is the cheaper side of that trade."""
        arch_plan = self._arch_plan(warp, pc)
        rs1_row = warp.regs.int_row(instr.rs1)
        imm = np.uint32(to_uint32(instr.imm))

        def run(warp) -> tuple:
            if warp.full:
                addresses = (rs1_row + imm).tolist()
            else:
                addresses = (rs1_row[warp.lanes] + imm).tolist()
            arch_plan(warp)
            return False, addresses

        return run

    def _timing_plan_tex(self, warp, pc: int, instr: DecodedInstruction) -> TimingPlan:
        """Whole-warp ``tex`` with the de-duplicated texel address trace the
        timing core turns into cache requests (see
        :meth:`TextureUnit.sample_warp_vector_trace`)."""
        core = self.core
        tex_unit = core.tex_unit
        csr = core.csr
        regs = warp.regs
        u_row = regs.fp_row(instr.rs1)
        v_row = regs.fp_row(instr.rs2)
        lod_row = regs.fp_row(instr.rs3)
        rd_row = regs.int_row(instr.rd) if instr.rd else None
        stage = instr.tex_stage
        next_pc = pc + 4

        def run(warp) -> tuple:
            if warp.full:
                colors, unique = tex_unit.sample_warp_vector_trace(
                    csr, stage, u_row, v_row, lod_row
                )
                if rd_row is not None:
                    rd_row[:] = colors
            else:
                lanes = warp.lanes
                colors, unique = tex_unit.sample_warp_vector_trace(
                    csr, stage, u_row[lanes], v_row[lanes], lod_row[lanes]
                )
                if rd_row is not None:
                    rd_row[lanes] = colors
            warp.pc = next_pc
            return False, unique

        return run

    # -- scalar fallback ---------------------------------------------------------------

    def _plan_scalar(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        handler = self._MNEMONIC_HANDLERS.get(instr.mnemonic)
        if handler is None:
            from repro.core.emulator import EmulationError

            raise EmulationError(f"unhandled instruction {instr.mnemonic}")
        unit = instr.spec.unit

        def run(warp) -> None:
            result = StepResult(
                warp_id=warp.warp_id,
                pc=pc,
                next_pc=pc + 4,
                instr=instr,
                tmask=warp.tmask,
                unit=unit,
            )
            handler(self, warp, instr, result)
            warp.pc = result.next_pc

        return run
