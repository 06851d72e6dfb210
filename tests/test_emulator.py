"""Tests for the warp-level instruction emulator and the functional core.

These tests assemble small programs with the builder DSL, load them into
device memory and run them on a one-core functional :class:`Processor`,
checking architectural state afterwards — the same flow the FUNCSIM driver
uses.
"""

import pytest

from repro.common.bitutils import bits_to_float, to_int32
from repro.common.config import VortexConfig
from repro.core.emulator import SimulationLimitExceeded
from repro.core.processor import Processor
from repro.isa.builder import ProgramBuilder
from repro.isa.csr import CSR
from repro.isa.registers import FReg, Reg

BASE = 0x8000_0000


def make_processor(num_warps=4, num_threads=4) -> Processor:
    return Processor(VortexConfig().with_warps_threads(num_warps, num_threads))


def run_program(proc: Processor, build, max_instructions=100_000):
    """Assemble ``build(asm)`` into memory and run it from its entry."""
    asm = ProgramBuilder(base=BASE)
    build(asm)
    program = asm.assemble()
    proc.memory.load_words(program.base, program.words)
    proc.run(program.entry, max_instructions=max_instructions)
    return program


def halt(asm):
    asm.li(Reg.t6, 0)
    asm.tmc(Reg.t6)


# -- scalar arithmetic ------------------------------------------------------------------------


def test_arithmetic_and_memory_roundtrip():
    proc = make_processor()
    core = proc.cores[0]

    def build(asm):
        asm.li(Reg.t0, 21)
        asm.slli(Reg.t1, Reg.t0, 1)          # 42
        asm.li(Reg.a0, 0x1000)
        asm.sw(Reg.t1, 0, Reg.a0)
        asm.lw(Reg.t2, 0, Reg.a0)
        asm.addi(Reg.t2, Reg.t2, 8)          # 50
        asm.sw(Reg.t2, 4, Reg.a0)
        halt(asm)

    run_program(proc, build)
    assert core.memory.read_word(0x1000) == 42
    assert core.memory.read_word(0x1004) == 50


def test_branch_loop_and_jal():
    proc = make_processor()
    core = proc.cores[0]

    def build(asm):
        asm.li(Reg.t0, 5)        # counter
        asm.li(Reg.t1, 0)        # sum
        loop = asm.label("loop")
        asm.add(Reg.t1, Reg.t1, Reg.t0)
        asm.addi(Reg.t0, Reg.t0, -1)
        asm.bnez(Reg.t0, loop)
        asm.li(Reg.a0, 0x2000)
        asm.sw(Reg.t1, 0, Reg.a0)
        halt(asm)

    run_program(proc, build)
    assert core.memory.read_word(0x2000) == 15


def test_function_call_and_return():
    proc = make_processor()
    core = proc.cores[0]

    def build(asm):
        asm.li(Reg.a0, 7)
        asm.call("double_it")
        asm.li(Reg.a1, 0x3000)
        asm.sw(Reg.a0, 0, Reg.a1)
        halt(asm)
        asm.label("double_it")
        asm.add(Reg.a0, Reg.a0, Reg.a0)
        asm.ret()

    run_program(proc, build)
    assert core.memory.read_word(0x3000) == 14


def test_float_arithmetic_through_memory():
    proc = make_processor()
    core = proc.cores[0]

    def build(asm):
        asm.li(Reg.a0, 0x4000)
        asm.li_float(FReg.fa0, 1.5)
        asm.li_float(FReg.fa1, 2.25)
        asm.fadd_s(FReg.fa2, FReg.fa0, FReg.fa1)
        asm.fsw(FReg.fa2, 0, Reg.a0)
        asm.fmul_s(FReg.fa3, FReg.fa0, FReg.fa1)
        asm.fsw(FReg.fa3, 4, Reg.a0)
        halt(asm)

    run_program(proc, build)
    assert bits_to_float(core.memory.read_word(0x4000)) == pytest.approx(3.75)
    assert bits_to_float(core.memory.read_word(0x4004)) == pytest.approx(3.375)


def test_byte_and_half_loads_sign_extend():
    proc = make_processor()
    core = proc.cores[0]

    def build(asm):
        asm.li(Reg.a0, 0x5000)
        asm.li(Reg.t0, 0xFFFF8081)
        asm.sw(Reg.t0, 0, Reg.a0)
        asm.lb(Reg.t1, 0, Reg.a0)
        asm.lbu(Reg.t2, 0, Reg.a0)
        asm.lh(Reg.t3, 0, Reg.a0)
        asm.lhu(Reg.t4, 0, Reg.a0)
        asm.sw(Reg.t1, 4, Reg.a0)
        asm.sw(Reg.t2, 8, Reg.a0)
        asm.sw(Reg.t3, 12, Reg.a0)
        asm.sw(Reg.t4, 16, Reg.a0)
        halt(asm)

    run_program(proc, build)
    assert to_int32(core.memory.read_word(0x5004)) == -127      # sign-extended 0x81
    assert core.memory.read_word(0x5008) == 0x81
    assert to_int32(core.memory.read_word(0x500C)) == -32639    # 0x8081
    assert core.memory.read_word(0x5010) == 0x8081


# -- CSR and SIMT control -----------------------------------------------------------------------


def test_csr_reads_machine_geometry():
    proc = make_processor(num_warps=4, num_threads=4)
    core = proc.cores[0]

    def build(asm):
        asm.li(Reg.a0, 0x6000)
        asm.csr_read(Reg.t0, CSR.NUM_THREADS)
        asm.csr_read(Reg.t1, CSR.NUM_WARPS)
        asm.csr_read(Reg.t2, CSR.CORE_ID)
        asm.csr_read(Reg.t3, CSR.THREAD_ID)
        asm.csr_read(Reg.t4, CSR.WARP_ID)
        asm.sw(Reg.t0, 0, Reg.a0)
        asm.sw(Reg.t1, 4, Reg.a0)
        asm.sw(Reg.t2, 8, Reg.a0)
        asm.sw(Reg.t3, 12, Reg.a0)
        asm.sw(Reg.t4, 16, Reg.a0)
        halt(asm)

    run_program(proc, build)
    assert core.memory.read_word(0x6000) == 4
    assert core.memory.read_word(0x6004) == 4
    assert core.memory.read_word(0x6008) == 0
    assert core.memory.read_word(0x600C) == 0  # thread 0 did the store that survived
    assert core.memory.read_word(0x6010) == 0


def test_tmc_activates_threads_with_per_thread_ids():
    proc = make_processor(num_warps=1, num_threads=4)
    core = proc.cores[0]

    def build(asm):
        asm.csr_read(Reg.t0, CSR.NUM_THREADS)
        asm.tmc(Reg.t0)
        # Each thread stores its id to 0x7000 + 4*tid.
        asm.csr_read(Reg.t1, CSR.THREAD_ID)
        asm.slli(Reg.t2, Reg.t1, 2)
        asm.li(Reg.a0, 0x7000)
        asm.add(Reg.a0, Reg.a0, Reg.t2)
        asm.sw(Reg.t1, 0, Reg.a0)
        halt(asm)

    run_program(proc, build)
    assert core.memory.read_words(0x7000, 4) == [0, 1, 2, 3]


def test_wspawn_launches_other_warps():
    proc = make_processor(num_warps=4, num_threads=1)
    core = proc.cores[0]

    def build(asm):
        asm.csr_read(Reg.t0, CSR.NUM_WARPS)
        asm.la(Reg.t1, "worker")
        asm.wspawn(Reg.t0, Reg.t1)
        asm.j("worker")
        asm.label("worker")
        asm.csr_read(Reg.t2, CSR.WARP_ID)
        asm.slli(Reg.t3, Reg.t2, 2)
        asm.li(Reg.a0, 0x8000)
        asm.add(Reg.a0, Reg.a0, Reg.t3)
        asm.addi(Reg.t4, Reg.t2, 100)
        asm.sw(Reg.t4, 0, Reg.a0)
        halt(asm)

    run_program(proc, build)
    assert core.memory.read_words(0x8000, 4) == [100, 101, 102, 103]
    assert core.perf.get("wspawns") == 1


def test_split_join_divergence_both_paths_execute():
    proc = make_processor(num_warps=1, num_threads=4)
    core = proc.cores[0]

    def build(asm):
        asm.csr_read(Reg.t0, CSR.NUM_THREADS)
        asm.tmc(Reg.t0)
        asm.csr_read(Reg.t1, CSR.THREAD_ID)
        # Predicate: thread id is even.
        asm.andi(Reg.t2, Reg.t1, 1)
        asm.seqz(Reg.t2, Reg.t2)
        asm.li(Reg.a0, 0x9000)
        asm.slli(Reg.t3, Reg.t1, 2)
        asm.add(Reg.a0, Reg.a0, Reg.t3)
        asm.split(Reg.t2)
        asm.beqz(Reg.t2, "else_path")
        asm.li(Reg.t4, 1111)
        asm.sw(Reg.t4, 0, Reg.a0)
        asm.join()
        asm.j("endif")
        asm.label("else_path")
        asm.li(Reg.t4, 2222)
        asm.sw(Reg.t4, 0, Reg.a0)
        asm.join()
        asm.label("endif")
        halt(asm)

    run_program(proc, build)
    assert core.memory.read_words(0x9000, 4) == [1111, 2222, 1111, 2222]
    assert core.perf.get("divergent_splits") == 1


def test_uniform_split_skips_untaken_side():
    proc = make_processor(num_warps=1, num_threads=4)
    core = proc.cores[0]

    def build(asm):
        asm.csr_read(Reg.t0, CSR.NUM_THREADS)
        asm.tmc(Reg.t0)
        asm.li(Reg.t2, 1)  # uniformly true predicate
        asm.li(Reg.a0, 0xA000)
        asm.split(Reg.t2)
        asm.beqz(Reg.t2, "else_path")
        asm.li(Reg.t4, 7)
        asm.sw(Reg.t4, 0, Reg.a0)
        asm.join()
        asm.j("endif")
        asm.label("else_path")
        asm.li(Reg.t4, 9)
        asm.sw(Reg.t4, 0, Reg.a0)
        asm.join()
        asm.label("endif")
        halt(asm)

    run_program(proc, build)
    assert core.memory.read_word(0xA000) == 7
    assert core.perf.get("uniform_splits") == 1


def test_barrier_synchronizes_warps():
    proc = make_processor(num_warps=4, num_threads=1)
    core = proc.cores[0]

    def build(asm):
        asm.csr_read(Reg.t0, CSR.NUM_WARPS)
        asm.la(Reg.t1, "worker")
        asm.wspawn(Reg.t0, Reg.t1)
        asm.j("worker")
        asm.label("worker")
        # Every warp increments a counter *before* the barrier...
        asm.li(Reg.a0, 0xB000)
        asm.csr_read(Reg.t2, CSR.WARP_ID)
        asm.slli(Reg.t3, Reg.t2, 2)
        asm.add(Reg.a1, Reg.a0, Reg.t3)
        asm.li(Reg.t4, 1)
        asm.sw(Reg.t4, 0, Reg.a1)
        # ... waits for all 4 warps ...
        asm.li(Reg.t5, 0)
        asm.csr_read(Reg.t6, CSR.NUM_WARPS)
        asm.bar(Reg.t5, Reg.t6)
        # ... then warp 0 sums the per-warp flags written before the barrier.
        asm.bnez(Reg.t2, "done")
        asm.lw(Reg.t3, 0, Reg.a0)
        asm.lw(Reg.t4, 4, Reg.a0)
        asm.add(Reg.t3, Reg.t3, Reg.t4)
        asm.lw(Reg.t4, 8, Reg.a0)
        asm.add(Reg.t3, Reg.t3, Reg.t4)
        asm.lw(Reg.t4, 12, Reg.a0)
        asm.add(Reg.t3, Reg.t3, Reg.t4)
        asm.sw(Reg.t3, 16, Reg.a0)
        asm.label("done")
        halt(asm)

    run_program(proc, build)
    assert core.memory.read_word(0xB010) == 4
    assert core.perf.get("barrier_stalls") >= 1


def test_ecall_halts_the_warp():
    proc = make_processor(num_warps=1, num_threads=1)
    core = proc.cores[0]

    def build(asm):
        asm.li(Reg.t0, 3)
        asm.ecall()

    run_program(proc, build)
    assert core.done


def test_runaway_kernel_hits_instruction_limit():
    proc = make_processor(num_warps=1, num_threads=1)

    def build(asm):
        loop = asm.label("forever")
        asm.j(loop)

    with pytest.raises(SimulationLimitExceeded):
        run_program(proc, build, max_instructions=1000)


def test_divergent_branch_without_split_is_counted():
    proc = make_processor(num_warps=1, num_threads=4)
    core = proc.cores[0]

    def build(asm):
        asm.csr_read(Reg.t0, CSR.NUM_THREADS)
        asm.tmc(Reg.t0)
        asm.csr_read(Reg.t1, CSR.THREAD_ID)
        # Branch condition differs across threads and no split protects it.
        asm.beqz(Reg.t1, "skip")
        asm.nop()
        asm.label("skip")
        halt(asm)

    run_program(proc, build)
    assert core.perf.get("divergent_branches") >= 1
