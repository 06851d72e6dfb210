"""Property-based tests for the SIMT execution model.

These check the invariants the Vortex extension is built around: arbitrary
divergence patterns handled by ``split``/``join`` always produce the same
per-thread results as a scalar reference, and the device-side runtime
distributes every task exactly once regardless of the machine geometry.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import VortexConfig
from repro.core.processor import Processor
from repro.isa.builder import ProgramBuilder
from repro.isa.csr import CSR
from repro.isa.registers import Reg
from repro.kernels import VecAddKernel
from repro.runtime.device import VortexDevice

BASE = 0x8000_0000
RESULT_ADDR = 0x0002_0000
PRED_ADDR = 0x0003_0000


def _run_divergence_program(predicates):
    """Run an if/else region where each thread's predicate comes from memory.

    Threads with a true predicate write ``100 + tid``; the others write
    ``200 + tid``.  Returns the per-thread results.
    """
    num_threads = len(predicates)
    config = VortexConfig().with_warps_threads(1, num_threads)
    proc = Processor(config)

    asm = ProgramBuilder(base=BASE)
    asm.csr_read(Reg.t0, CSR.NUM_THREADS)
    asm.tmc(Reg.t0)
    asm.csr_read(Reg.t1, CSR.THREAD_ID)
    asm.slli(Reg.t2, Reg.t1, 2)
    # Load this thread's predicate.
    asm.li(Reg.a0, PRED_ADDR)
    asm.add(Reg.a0, Reg.a0, Reg.t2)
    asm.lw(Reg.t3, 0, Reg.a0)
    # Result slot.
    asm.li(Reg.a1, RESULT_ADDR)
    asm.add(Reg.a1, Reg.a1, Reg.t2)
    asm.split(Reg.t3)
    asm.beqz(Reg.t3, "else_side")
    asm.addi(Reg.t4, Reg.t1, 100)
    asm.sw(Reg.t4, 0, Reg.a1)
    asm.join()
    asm.j("merge")
    asm.label("else_side")
    asm.addi(Reg.t4, Reg.t1, 200)
    asm.sw(Reg.t4, 0, Reg.a1)
    asm.join()
    asm.label("merge")
    asm.li(Reg.t6, 0)
    asm.tmc(Reg.t6)
    program = asm.assemble()

    proc.memory.load_words(program.base, program.words)
    proc.memory.load_words(PRED_ADDR, [1 if p else 0 for p in predicates])
    proc.run(program.entry)
    return proc.memory.read_words(RESULT_ADDR, num_threads)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.booleans(), min_size=2, max_size=8))
def test_split_join_matches_scalar_reference_for_any_divergence(predicates):
    results = _run_divergence_program(predicates)
    expected = [100 + tid if pred else 200 + tid for tid, pred in enumerate(predicates)]
    assert results == expected


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),   # warps
    st.integers(min_value=1, max_value=4),   # threads
    st.integers(min_value=1, max_value=60),  # tasks
)
def test_task_distribution_covers_every_task_exactly_once(warps, threads, tasks):
    """The spawn runtime executes each task id exactly once for any geometry."""
    config = VortexConfig().with_warps_threads(warps, threads)
    device = VortexDevice(config, driver="funcsim")

    kernel = VecAddKernel()
    run = kernel.run(device, size=tasks)
    assert run.passed

    a, b = run.context["a"], run.context["b"]
    result = run.context["out"].read(np.uint32, tasks)
    assert np.array_equal(result, a + b)


@pytest.mark.parametrize("warps,threads", [(1, 1), (2, 2), (8, 2), (2, 8), (8, 4)])
def test_kernel_correct_across_machine_geometries(warps, threads):
    config = VortexConfig().with_warps_threads(warps, threads)
    device = VortexDevice(config, driver="funcsim")
    run = VecAddKernel().run(device, size=64)
    assert run.passed


def test_nested_divergence_three_levels_deep():
    """Nested split/join regions reconverge correctly (IPDOM stack depth 3+)."""
    num_threads = 8
    config = VortexConfig().with_warps_threads(1, num_threads)
    proc = Processor(config)

    asm = ProgramBuilder(base=BASE)
    asm.csr_read(Reg.t0, CSR.NUM_THREADS)
    asm.tmc(Reg.t0)
    asm.csr_read(Reg.t1, CSR.THREAD_ID)
    asm.slli(Reg.t2, Reg.t1, 2)
    asm.li(Reg.a1, RESULT_ADDR)
    asm.add(Reg.a1, Reg.a1, Reg.t2)
    asm.li(Reg.t5, 0)

    # Level 1: tid >= 4; level 2: tid & 2; level 3: tid & 1.  Accumulate a
    # distinct weight on each taken level, so each thread ends with its tid.
    def nested(bit_value, weight, level):
        then_label = asm.new_label(f"then{level}")
        end_label = asm.new_label(f"end{level}")
        asm.andi(Reg.t3, Reg.t1, bit_value)
        asm.snez(Reg.t3, Reg.t3)
        asm.split(Reg.t3)
        asm.beqz(Reg.t3, then_label)
        asm.addi(Reg.t5, Reg.t5, weight)
        if level < 3:
            nested(bit_value >> 1, weight >> 1, level + 1)
        asm.join()
        asm.j(end_label)
        asm.label(then_label)
        if level < 3:
            nested(bit_value >> 1, weight >> 1, level + 1)
        asm.join()
        asm.label(end_label)

    nested(4, 4, 1)
    asm.sw(Reg.t5, 0, Reg.a1)
    asm.li(Reg.t6, 0)
    asm.tmc(Reg.t6)
    program = asm.assemble()

    proc.memory.load_words(program.base, program.words)
    proc.run(program.entry)
    results = proc.memory.read_words(RESULT_ADDR, num_threads)
    # Each nesting level adds its bit's weight only on the taken side, but the
    # untaken side still explores the deeper levels, so every thread
    # accumulates exactly the bits of its own thread id.
    assert results == list(range(num_threads))
