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
handler-table idea of the scalar emulator taken to its limit.  The same
builders bound to a ``(warps, threads)`` register block give a *block*: one
call that runs a run of adjacent warps at one PC through straight-line
private code, round a loop that closes on it as often as it is allowed —
whole trips of a counted loop as one *trip summary*: induction registers in
closed form, every trip's loads in one gather, and only the loop-carried
accumulators stepped trip by trip.

Architectural results are bit-identical to the scalar
:class:`~repro.core.emulator.WarpEmulator` (the differential test in
``tests/test_engine_differential.py`` holds both engines to that); rare
instructions (CSR access, barriers, ``tmc``/``wspawn``, texture fetches)
reuse the scalar per-mnemonic handlers directly.
"""

from __future__ import annotations

from collections.abc import Callable
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.arch.alu import (
    ALU_VECTOR_OPS,
    BRANCH_VECTOR_OPS,
    DIV_VECTOR_OPS,
    MUL_VECTOR_OPS,
)
from repro.arch.fpu import FPU_VECTOR_OPS, _round_bits
from repro.common.bitutils import to_uint32
from repro.core.emulator import EmulationError, StepResult, WarpEmulator
from repro.core.ipdom import IpdomEntry
from repro.isa.decoder import DecodedInstruction
from repro.isa.instructions import ExecUnit
from repro.mem.memory import MemoryAccessError

#: A plan executes one instruction for the warp it was built for (registers,
#: memory, PC).  It binds that warp's register rows but takes the warp itself
#: as its argument: a closure over the warp, cached in the warp's own
#: ``plan_cache``, is a reference cycle that keeps a dropped device (and its
#: ``MainMemory``) alive until a full garbage collection.  Branch and ``join``
#: plans return the taken decision and ``tex`` plans the texel address trace
#: (what the timing plans pass on); the others return None.
Plan = Callable[[Any], Any]

#: A timing plan additionally returns ``(taken_branch, request_addresses)``.
TimingPlan = Callable[[Any], tuple]

#: A block's ``run(limit)``: executes at most ``limit`` instructions of each
#: warp of its run and returns how many (:meth:`VectorWarpEmulator._build_block`).
Block = Callable[[int], int]

#: Integer instructions that are private (:meth:`VectorWarpEmulator.private`)
#: besides branches and loads.
_PRIVATE_MNEMONICS = frozenset(
    {"lui", "auipc", "jal", "jalr", "split", "join",
     *ALU_VECTOR_OPS, *MUL_VECTOR_OPS, *DIV_VECTOR_OPS}
)
#: Integer instructions a block (:meth:`VectorWarpEmulator._build_block`)
#: runs for a run of warps at once, besides the float32 FPU ops.
_GROUPED_MNEMONICS = frozenset({*ALU_VECTOR_OPS, *MUL_VECTOR_OPS, *DIV_VECTOR_OPS, "lw", "flw"})


def _warp_run(core, first: int, count: int) -> SimpleNamespace:
    """Stands in for a warp when a plan is built for warps ``first ..
    first+count-1``: its register rows are ``(count, threads)`` blocks of
    the core's stacks, and numpy broadcasts every lane op over them."""
    span = slice(first, first + count)
    regs = SimpleNamespace(
        int_row=core.int_stack[:, span].__getitem__,
        fp_row=core.fp_stack[:, span].__getitem__,
    )
    return SimpleNamespace(full=True, pc=0, regs=regs)


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

    A plan executes exactly one instruction of one warp; a block
    (:meth:`_build_block`) up to a given number of instructions of adjacent
    warps at one PC, the straight-line code from there plus the branch that
    ends it, looping while that branch takes them all back.  Which order
    they run in is :class:`~repro.core.processor.VectorProcessor`'s
    business: the per-thread oracle's round order, one warp's plan at a
    time, wherever warps can see each other (kernels like bfs communicate
    through memory flags and observe it), and any order that keeps each
    warp's own inside a window of :meth:`private` instructions, which
    commute — the only place blocks run.
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

    # -- runs of warps at one PC -------------------------------------------------------

    def invalidate_decode_cache(self) -> None:
        super().invalidate_decode_cache()
        core = self.core
        core.block_cache.clear()
        core.private_pcs.clear()
        core.window_lengths.clear()

    #: Set while :func:`~repro.core.processor._private_rounds` runs a window:
    #: a ``split`` or ``join`` that would change its warp's thread mask then
    #: raises before any effect, so the window ends where it stands.
    windowed = False

    def private(self, pc: int) -> bool:
        """Whether the instruction at ``pc`` is *private* (cached in the
        core's ``private_pcs``): it writes only its own warp's registers,
        PC and IPDOM stack, and reads only those and memory — ALU, MUL/DIV,
        the vector FPU ops, ``lui``/``auipc``, branches, jumps, loads, and
        ``split``/``join`` as long as they leave the thread mask unchanged
        (a ``split`` uniform over the warp's active lanes, a ``join`` that
        pops a fall-through entry of the current mask; see
        :attr:`windowed`).  Private instructions of different warps commute
        while nothing stores."""
        private = self.core.private_pcs.get(pc)
        if private is not None:
            return private
        try:
            instr = self.fetch(pc)
        except (EmulationError, MemoryAccessError):
            private = False  # the in-order step raises it
        else:
            spec = instr.spec
            private = spec.is_branch or spec.is_load or instr.mnemonic in _PRIVATE_MNEMONICS
            if spec.unit in (ExecUnit.FPU, ExecUnit.FDIV):
                private = instr.mnemonic in FPU_VECTOR_OPS
        self.core.private_pcs[pc] = private
        return private

    def _build_block(self, pc: int, first: int, count: int) -> tuple[int, Block] | None:
        """A *block* for the full-mask warps ``first .. first+count-1`` at
        ``pc``, as ``(length, run)``; None when the instruction at ``pc``
        executes warp by warp.

        The block is the straight run of grouped instructions from ``pc`` —
        ALU/MUL/DIV ops, word loads, the float32 FPU ops, whose effects stay
        in each warp's registers, and ``split``/``join`` where they leave
        every mask unchanged (:meth:`_group_ipdom`) — ending with the
        conditional branch or ``jal`` that follows, if one does (``jal``
        writes ``rd`` of every member, then jumps).  ``run(limit)`` executes
        at most ``limit`` instructions of every member, going round again
        while that branch takes every member back to ``pc``, and returns how
        many it executed: it stops before a misaligned word load (the warps
        then raise one by one, in order) and before a ``split``/``join``
        that would change a mask (the window then ends there).  It closes
        over the warps (never the core) and advances their PC and retired
        count.

        A loop's ``run`` first tries its *trip summary* (:meth:`_trip_summary`):
        the trips in which every lane of every member takes the branch back,
        all but the last that fit in ``limit``, as whole-loop array ops.  It
        takes bodies whose registers read before written are *induction*
        registers (one ``addi r, r, c`` or ``add r, r, s``, ``s`` invariant:
        closed form) or *recurrences* (an ``add`` or float32 FPU op on its own
        destination, read by nothing else: stepped per trip over operands
        computed once), closed by a branch of a growing induction register
        against an invariant one, and no ``split``/``join``.  A load gathers
        every trip from the page span between its lowest and highest
        address, or none: a misaligned address, a non-resident page in the
        span or a span of more pages than addresses leaves the call to the
        per-trip loop, which raises and allocates where the oracle does.  NaN
        is absorbing in these ops and canonicalisation maps every NaN to one
        pattern, so it runs once, after the last trip.
        """
        block = _warp_run(self.core, first, count)
        members = tuple(self.core.warps[first : first + count])
        plans: list[Plan] = []
        body: list[DecodedInstruction] = []
        decide: Callable[[], list[bool]] | None = None
        target = -1
        end = pc
        while self.private(end):
            instr = self.fetch(end)
            mnemonic = instr.mnemonic
            if instr.spec.is_branch or mnemonic == "jal":
                decide = self._group_jump(block, instr, end)
                target = to_uint32(end + instr.imm)
                break
            if mnemonic in ("split", "join"):
                plans.append(self._group_ipdom(block, members, instr))
            elif mnemonic in _GROUPED_MNEMONICS or mnemonic in self._FPU_F32_FULL:
                plans.append(self._build_plan(block, end))
            else:
                break
            body.append(instr)
            end += 4
        straight = len(plans)
        if decide is None and not straight:
            return None
        loops = target == pc
        summary = None
        # A summary steps no IPDOM stack: such loops run trip by trip.
        ipdom = any([i.spec.unit is ExecUnit.SFU for i in body])
        if loops and instr.spec.is_branch and not ipdom:
            summary = self._trip_summary(block, body, instr)

        def finish(executed: int, next_pc: int) -> int:
            for warp in members:
                warp.pc = next_pc
                warp.instructions += executed
            return executed

        def run(limit: int) -> int:
            executed = 0 if summary is None else (straight + 1) * summary(limit)
            while True:
                body = plans if limit - executed >= straight else plans[: limit - executed]
                for plan in body:
                    if plan(block) is False:
                        index = body.index(plan)
                        return finish(executed + index, pc + 4 * index)
                executed += len(body)
                if decide is None or executed == limit:
                    return finish(executed, pc + 4 * len(body))
                taken = decide()
                executed += 1
                if loops and executed < limit and all(taken):
                    continue
                for warp, took in zip(members, taken):
                    warp.pc = target if took else end + 4
                    warp.instructions += executed
                return executed

        return straight + (decide is not None), run

    def _trip_summary(
        self, block, body: list[DecodedInstruction], branch: DecodedInstruction
    ) -> Callable[[int], int] | None:
        """``summary(limit)`` of the loop ``body`` + ``branch`` (the rules are
        :meth:`_build_block`'s) or None; it returns the trips it ran."""
        def reads(instr: DecodedInstruction) -> list[int]:
            # x0..x31 are registers 0..31, f0..f31 are 32..63.
            spec, form = instr.spec, instr.spec.fmt.value
            count = 1 if spec.is_load or form == "I" else 2 + (form == "R4")
            fields = ("rs1", "rs2", "rs3")[:count]
            return [getattr(instr, f) + 32 * getattr(spec, f + "_float") for f in fields]

        dests = [instr.rd + 32 * instr.spec.rd_float for instr in body]
        sources = [reads(instr) for instr in body]
        lhs, rhs = reads(branch)
        rows = {
            r: block.regs.fp_row(r - 32) if r >= 32 else block.regs.int_row(r)
            for r in sorted({*dests, *sum(sources, []), lhs, rhs})
        }
        where = {rd: pos for pos, rd in enumerate(dests) if rd}
        if len(where) < len(dests) - dests.count(0):
            return None  # a register written twice
        induction: dict[int, tuple[int, Any]] = {}  # register -> (position, step)
        recurrent: set[int] = set()
        ops = []  # what the summary computes, in body order
        for pos, (instr, rd, srcs) in enumerate(zip(body, dests, sources)):
            rest = [s for s in srcs if s != rd]
            if rd and rd in srcs:  # it reads what it writes
                if instr.mnemonic == "addi":
                    induction[rd] = pos, np.uint32(to_uint32(instr.imm))
                elif instr.mnemonic == "add" and rest and rest[0] not in where:
                    induction[rd] = pos, rows[rest[0]]
                elif instr.mnemonic in self._FPU_F32_FULL or (instr.mnemonic == "add" and rest):
                    recurrent.add(rd)
                else:
                    return None
            if rd not in induction and (rd or instr.spec.is_load):
                ops.append((pos, instr.mnemonic, rd, srcs, np.uint32(to_uint32(instr.imm))))
        for pos, srcs in enumerate(sources):
            for s in srcs:
                w = where.get(s, -1)
                if w >= 0 and s not in induction and (w != pos if s in recurrent else w >= pos):
                    return None  # read before it is written, or a recurrence read
        mnemonic, left = branch.mnemonic, lhs in induction
        ind, bound = (lhs, rhs) if left else (rhs, lhs)
        branches = ("blt", "bltu", "bge", "bgeu", "bne")
        if mnemonic not in branches or ind not in induction or bound in where:
            return None
        int_ops = {**ALU_VECTOR_OPS, **MUL_VECTOR_OPS, **DIV_VECTOR_OPS}
        memory, length = self.core.memory, len(body) + 1
        signed = np.int32 if mnemonic in ("blt", "bge") else np.uint32
        low, high = (-(1 << 31), (1 << 31) - 1) if signed is np.int32 else (0, (1 << 32) - 1)

        def summary(limit: int) -> int:
            if limit < 2 * length:
                return 0
            stride = np.asarray(induction[ind][1], np.uint32).view(np.int32).astype(np.int64)
            if (stride <= 0).any():
                return 0
            start, end = (rows[r].view(signed).astype(np.int64) for r in (ind, bound))
            if mnemonic in ("blt", "bltu"):
                lower, upper = (low, end - 1) if left else (end + 1, high)
            elif mnemonic in ("bge", "bgeu"):
                lower, upper = (end, high) if left else (low, end)
            else:  # bne: until the induction lands on the bound, if it does
                exact = (start < end) & ((end - start) % stride == 0)
                lower, upper = low, np.where(exact, end - 1, high)
            taken = np.where(start + stride >= lower, (upper - start) // stride, 0)
            trips = min(int(taken.min()), limit // length - 1)
            if trips < 1:
                return 0
            counts = np.arange(trips, dtype=np.uint32)[:, None, None]
            shape = (trips, *rows[ind].shape)
            values, last = {}, {}  # per-trip values; final values

            def value(r: int, pos: int) -> np.ndarray:
                if r in induction:
                    w, c = induction[r]
                    return rows[r] + c * (counts + np.uint32(pos > w))
                return values.get(r, rows[r])

            reads_before, pages = memory.reads, memory._pages
            for pos, op, rd, srcs, imm in ops:
                if op in ("lw", "flw"):
                    # One gather from the pages that span the addresses.
                    addresses = np.broadcast_to(value(srcs[0], pos) + imm, shape)
                    first = int(addresses.min()) >> 12
                    span = range(first, (int(addresses.max()) >> 12) + 1)
                    if (len(span) > addresses.size or not all(p in pages for p in span)
                            or int(np.bitwise_or.reduce(addresses, axis=None)) & 3):
                        memory.reads = reads_before
                        return 0
                    words = np.concatenate([pages[p][1] for p in span])
                    result = words[(addresses - np.uint32(first << 12)) >> np.uint32(2)]
                    memory.reads += addresses.size
                elif rd in recurrent and op == "add":  # the sum of the other operand
                    every = np.broadcast_to(value(srcs[srcs[0] == rd], pos), shape)
                    last[rd] = rows[rd] + np.add.reduce(every, 0, np.uint32)
                    continue
                elif op in self._FPU_F32_FULL:
                    fast = self._FPU_F32_FULL[op]
                    args = [  # None: the accumulator; a third operand unread unless fused
                        None if s == rd and rd in recurrent
                        else np.broadcast_to(value(s, pos).view(np.float32), shape)
                        for s in (*srcs, rd)[:3]
                    ]
                    if rd in recurrent:
                        acc = rows[rd].view(np.float32).copy()
                        if len(srcs) == 3 and rd not in srcs[:2]:
                            # The addend only: all float64 products, then the plan's add.
                            product = np.multiply(args[0], args[1], dtype=np.float64)
                            if op in ("fnmsub.s", "fnmadd.s"):
                                np.negative(product, out=product)
                            tail = np.subtract if op in ("fmsub.s", "fnmadd.s") else np.add
                            for trip in product:
                                tail(trip, acc, out=acc)
                        else:
                            for trip in range(trips):
                                acc[...] = fast(*[acc if a is None else a[trip] for a in args])
                        last[rd] = _round_bits(acc)
                        continue
                    result = np.asarray(fast(*args), dtype=np.float32).view(np.uint32)
                    last[rd] = _round_bits(result[-1].view(np.float32))
                else:
                    rhs = imm if len(srcs) == 1 else value(srcs[1], pos)
                    result = np.asarray(int_ops[op](value(srcs[0], pos), rhs), dtype=np.uint32)
                    result = np.broadcast_to(result, shape)
                if rd:
                    values[rd] = result
                    last.setdefault(rd, result[-1])
            last.update({r: rows[r] + c * np.uint32(trips) for r, (_, c) in induction.items()})
            for r, final in last.items():
                rows[r][...] = final
            return trips

        return summary

    def _group_jump(self, block, instr, pc: int) -> Callable[[], list[bool]]:
        """Conditional branch or ``jal`` over a run of warps: for a branch,
        each warp votes along its lanes and, like :meth:`_plan_branch`,
        follows its first thread; ``jal`` writes ``rd`` of every warp and is
        taken.  The closure returns each warp's decision."""
        if instr.mnemonic == "jal":
            taken = [True] * block.regs.int_row(0).shape[0]
            link = block.regs.int_row(instr.rd) if instr.rd else None
            return_address = np.uint32(to_uint32(pc + 4))

            def jump() -> list[bool]:
                if link is not None:
                    link[...] = return_address
                return taken

            return jump
        cmp, lhs, rhs = self._full_compare(instr, block.regs)
        perf = self.core.perf

        def decide() -> list[bool]:
            decisions = cmp(lhs, rhs)
            if 0 < np.count_nonzero(decisions) < decisions.size:
                # Divergent warps hold 0 < lane votes < threads.
                votes = np.count_nonzero(decisions, axis=1) % decisions.shape[1]
                if votes.any():
                    perf.incr("divergent_branches", int(np.count_nonzero(votes)))
            return decisions[:, 0].tolist()

        return decide

    def _group_ipdom(self, block, members: tuple, instr: DecodedInstruction) -> Plan:
        """``split`` or ``join`` over a run of full-mask warps, only where it
        leaves every mask unchanged: a ``split`` whose predicate is uniform
        along each warp's lanes pushes a fall-through entry of the full mask
        on every stack, a ``join`` pops one from every stack.  Every member
        is checked before any push or pop; the plan returns False, having
        done nothing, where one fails (and before the core's first split,
        which runs in round order: see :meth:`_plan_split`)."""
        stacks = [warp.ipdom for warp in members]
        keeps = IpdomEntry(members[0].full_mask)
        counters = self.core.perf._counters
        if instr.mnemonic == "join":

            def join(_) -> bool | None:
                for stack in stacks:
                    if not stack or stack.peek() != keeps:
                        return False
                for stack in stacks:
                    stack.pop()
                return None

            return join
        predicate = block.regs.int_row(instr.rs1)
        threads = predicate.shape[1]

        def split(_) -> bool | None:
            votes = np.count_nonzero(predicate, axis=1)
            if (votes % threads).any() or "uniform_splits" not in counters:
                return False
            if any([len(stack) >= stack.depth for stack in stacks]):
                return False  # the overflow raises warp by warp
            for stack in stacks:
                stack.push(keeps.tmask)
            counters["uniform_splits"] += len(stacks)
            return None

        return split

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
        rs1_row = warp.regs.int_row(instr.rs1)
        rs2_row = warp.regs.int_row(instr.rs2)
        target = to_uint32(pc + instr.imm)
        next_pc = pc + 4
        perf = self.core.perf
        full_cmp, full_lhs, full_rhs = self._full_compare(instr, warp.regs)
        # The masked path re-derives the comparator from the generic table.
        masked_cmp = BRANCH_VECTOR_OPS[instr.mnemonic]

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

    @staticmethod
    def _full_compare(instr: DecodedInstruction, regs) -> tuple:
        """Full-mask comparator and operand rows of a conditional branch;
        signed comparisons reinterpret the rows once at build time."""
        rs1_row = regs.int_row(instr.rs1)
        rs2_row = regs.int_row(instr.rs2)
        if instr.mnemonic in ("blt", "bge"):
            cmp = np.less if instr.mnemonic == "blt" else np.greater_equal
            return cmp, rs1_row.view(np.int32), rs2_row.view(np.int32)
        return BRANCH_VECTOR_OPS[instr.mnemonic], rs1_row, rs2_row

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
    #: mnemonic -> full-mask implementation over float32 lanes ``(a, b, c)``.
    #: The fused ops compute through an exact float64 product first.
    _FPU_F32_FULL = {
        "fadd.s": lambda a, b, c: a + b,
        "fsub.s": lambda a, b, c: a - b,
        "fmul.s": lambda a, b, c: a * b,
        "fmadd.s": lambda a, b, c: np.multiply(a, b, dtype=np.float64) + c,
        "fmsub.s": lambda a, b, c: np.multiply(a, b, dtype=np.float64) - c,
        "fnmsub.s": lambda a, b, c: c - np.multiply(a, b, dtype=np.float64),
        "fnmadd.s": lambda a, b, c: np.negative(np.multiply(a, b, dtype=np.float64)) - c,
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

        fast = self._FPU_F32_FULL.get(mnemonic)
        if fast is not None:
            lhs32 = rs1_row.view(np.float32)
            rhs32 = rs2_row.view(np.float32)
            acc32 = rs3_row.view(np.float32)
            rd32 = rd_row.view(np.float32)

            # Full-mask results land in rd directly; the max-reduction is
            # NaN iff some lane is, and only then are NaNs canonicalized.
            def run(warp) -> None:
                if warp.full:
                    rd32[:] = fast(lhs32, rhs32, acc32)
                    top = np.maximum.reduce(rd32, axis=None)
                    if top != top:
                        rd_row[:] = _round_bits(rd32)
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
        validating page residency and alignment at once, and one ``take`` —
        over one warp's row or a run of warps' ``(n, threads)`` block, which
        gathers across pages on a miss but returns False instead of raising.
        Keep the residency/alignment test and access accounting in sync
        with :meth:`repro.mem.memory.WordCursor.gather` — this is that
        fast path inlined (measured: the extra call is significant here).
        """
        from repro.mem.memory import PAGE_SIZE

        cursor = memory.word_cursor()
        # state = [imm - page_start] — rebiased whenever the cursor re-anchors.
        state = [None]
        grouped = rs1_row.ndim == 2

        def run(warp) -> bool | None:
            if warp.full:
                biased = state[0]
                if biased is not None:
                    relative = rs1_row + biased
                    packed = int(np.bitwise_or.reduce(relative, axis=None))
                    if packed < PAGE_SIZE and not (packed & 3):
                        memory.reads += relative.size
                        if rd_row is not None:
                            rd_row[:] = cursor.words.take(relative >> np.uint32(2))
                        warp.pc = next_pc
                        return None
                addresses = rs1_row + imm
                if grouped:
                    addresses = addresses.ravel()
                    if int(np.bitwise_or.reduce(addresses)) & 3:
                        cursor._re_anchor(addresses)
                        state[0] = imm - cursor.page_start
                        return False
                values = cursor.gather(addresses)
                state[0] = imm - cursor.page_start
                if rd_row is not None:
                    rd_row[:] = values.reshape(rd_row.shape)
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
        through the texture unit's vectorized sampler in one shot.  The plan
        returns the de-duplicated texel address trace, which the timing plan
        hands to the cycle-level core (see
        :meth:`TextureUnit.sample_warp_vector`).

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

        def run(warp) -> list[int]:
            if warp.full:
                colors, unique = tex_unit.sample_warp_vector(
                    csr, stage, u_row, v_row, lod_row
                )
                if rd_row is not None:
                    rd_row[:] = colors
            else:
                lanes = warp.lanes
                colors, unique = tex_unit.sample_warp_vector(
                    csr, stage, u_row[lanes], v_row[lanes], lod_row[lanes]
                )
                if rd_row is not None:
                    rd_row[lanes] = colors
            warp.pc = next_pc
            return unique

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
            # In a window the first split of the core runs in round order:
            # a window creates at most one counter key (the checkpoint keeps
            # their order).
            if self.windowed and (taken_mask and not_taken_mask or "uniform_splits" not in perf):
                raise EmulationError("a window ends before a split that changes the mask")
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
            if self.windowed and warp.ipdom.peek() != IpdomEntry(warp.tmask):
                raise EmulationError("a window ends before a join that changes the mask")
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
        elif mnemonic == "tex":
            run = self._timing_plan_tex(warp, pc)
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

    def _timing_plan_tex(self, warp, pc: int) -> TimingPlan:
        """Whole-warp ``tex``: the architectural plan returns the texel
        address trace the timing core turns into cache requests."""
        arch_plan = self._arch_plan(warp, pc)

        def run(warp) -> tuple:
            return False, arch_plan(warp)

        return run

    # -- scalar fallback ---------------------------------------------------------------

    def _plan_scalar(self, warp, pc: int, instr: DecodedInstruction) -> Plan:
        handler = self._MNEMONIC_HANDLERS.get(instr.mnemonic)
        if handler is None:
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
