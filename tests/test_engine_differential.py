"""Differential test: the vectorized engine vs the scalar reference.

Every kernel in ``repro/kernels`` runs on ``funcsim`` and on the per-thread
oracle ``funcsimref`` (``tests/conftest.py``) with the same inputs and the
final architectural state must be bit-identical:
integer and floating-point registers of every warp of every core, the
retired-instruction counts, and all of device memory.
"""

import numpy as np
import pytest

from repro.common.config import VortexConfig
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice


def _architectural_state(device):
    cores = device.driver.processor.cores
    warps = [
        (
            core.core_id,
            warp.warp_id,
            warp.regs._int_regs.copy(),
            warp.regs._fp_regs.copy(),
            warp.instructions,
        )
        for core in cores
        for warp in core.warps
    ]
    return warps, device.memory.page_snapshot()


def _run_kernel(kernel, driver, config, size):
    device = VortexDevice(config, driver=driver)
    run = kernel.run(device, size=size)
    assert run.passed, f"{kernel.name} failed verification on {driver}"
    return run.report, _architectural_state(device)


def _run(kernel_name, driver, config, size):
    return _run_kernel(KERNELS[kernel_name](), driver, config, size)


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_vector_engine_matches_scalar_reference(kernel_name):
    config = VortexConfig()
    scalar_report, (scalar_warps, scalar_memory) = _run(
        kernel_name, "funcsimref", config, size=64
    )
    vector_report, (vector_warps, vector_memory) = _run(
        kernel_name, "funcsim", config, size=64
    )

    assert scalar_report.instructions == vector_report.instructions
    assert scalar_report.thread_instructions == vector_report.thread_instructions

    for scalar_warp, vector_warp in zip(scalar_warps, vector_warps):
        core_id, warp_id = scalar_warp[0], scalar_warp[1]
        assert np.array_equal(scalar_warp[2], vector_warp[2]), (
            f"{kernel_name}: integer registers differ on core {core_id} warp {warp_id}"
        )
        assert np.array_equal(scalar_warp[3], vector_warp[3]), (
            f"{kernel_name}: fp registers differ on core {core_id} warp {warp_id}"
        )
        assert scalar_warp[4] == vector_warp[4], (
            f"{kernel_name}: retired counts differ on core {core_id} warp {warp_id}"
        )

    assert scalar_memory == vector_memory, f"{kernel_name}: device memory differs"


@pytest.mark.parametrize("geometry", [(2, 8), (8, 2), (1, 1), (4, 16)])
def test_vector_engine_matches_scalar_across_geometries(geometry):
    warps, threads = geometry
    config = VortexConfig().with_warps_threads(warps, threads)
    _, (scalar_warps, scalar_memory) = _run("sgemm", "funcsimref", config, size=36)
    _, (vector_warps, vector_memory) = _run("sgemm", "funcsim", config, size=36)
    for scalar_warp, vector_warp in zip(scalar_warps, vector_warps):
        assert np.array_equal(scalar_warp[2], vector_warp[2])
        assert np.array_equal(scalar_warp[3], vector_warp[3])
    assert scalar_memory == vector_memory


def test_vector_engine_matches_scalar_multicore():
    config = VortexConfig(num_cores=2)
    _, (scalar_warps, scalar_memory) = _run("vecadd", "funcsimref", config, size=96)
    _, (vector_warps, vector_memory) = _run("vecadd", "funcsim", config, size=96)
    for scalar_warp, vector_warp in zip(scalar_warps, vector_warps):
        assert np.array_equal(scalar_warp[2], vector_warp[2])
        assert scalar_warp[4] == vector_warp[4]
    assert scalar_memory == vector_memory


@pytest.mark.parametrize("mode", ["point", "bilinear", "trilinear"])
@pytest.mark.parametrize("use_hw", [True, False])
def test_texture_kernels_match_scalar_reference(mode, use_hw):
    """The ``tex`` fast path (and the all-software sampling codegen) must be
    bit-identical between the engines: registers, memory, retired counts."""
    from repro.kernels.texture import TextureKernel

    config = VortexConfig()
    scalar_report, (scalar_warps, scalar_memory) = _run_kernel(
        TextureKernel(mode=mode, use_hw=use_hw), "funcsimref", config, size=64
    )
    vector_report, (vector_warps, vector_memory) = _run_kernel(
        TextureKernel(mode=mode, use_hw=use_hw), "funcsim", config, size=64
    )
    assert scalar_report.instructions == vector_report.instructions
    for scalar_warp, vector_warp in zip(scalar_warps, vector_warps):
        assert np.array_equal(scalar_warp[2], vector_warp[2])
        assert np.array_equal(scalar_warp[3], vector_warp[3])
        assert scalar_warp[4] == vector_warp[4]
    assert scalar_memory == vector_memory


def test_tex_executes_as_a_vector_plan_not_scalar_fallback():
    """The vector engine must compile ``tex`` into a whole-warp plan; the
    per-thread scalar fallback is only for genuinely rare instructions."""
    from repro.core.vector_emulator import VectorWarpEmulator
    from repro.kernels.texture import TextureKernel

    fallen_back = []
    original = VectorWarpEmulator._plan_scalar

    def spy(self, warp, pc, instr):
        fallen_back.append(instr.mnemonic)
        return original(self, warp, pc, instr)

    VectorWarpEmulator._plan_scalar = spy
    try:
        device = VortexDevice(VortexConfig(), driver="funcsim")
        run = TextureKernel(mode="bilinear", use_hw=True).run(device, size=64)
    finally:
        VectorWarpEmulator._plan_scalar = original
    assert run.passed
    assert "tex" not in fallen_back


def test_vector_engine_agrees_with_simx_instruction_counts():
    config = VortexConfig()
    vector_report, _ = _run("saxpy", "funcsim", config, size=64)
    device = VortexDevice(config, driver="simx")
    run = KERNELS["saxpy"]().run(device, size=64)
    assert run.passed
    assert run.report.instructions == vector_report.instructions


def test_instret_csr_is_live_under_the_vector_engine():
    """A kernel reading INSTRET mid-run must see the same live count on
    both engines (the CSR is guest-visible; it cannot lag behind)."""
    from repro.isa.builder import ProgramBuilder
    from repro.isa.csr import CSR
    from repro.isa.registers import Reg
    from repro.runtime.registry import create_driver

    def build():
        asm = ProgramBuilder(base=0x8000_0000)
        asm.addi(Reg.t0, Reg.zero, 1)  # retire a few instructions first
        asm.addi(Reg.t0, Reg.t0, 1)
        asm.addi(Reg.t0, Reg.t0, 1)
        asm.csr_read(Reg.t1, CSR.INSTRET)
        asm.li(Reg.t2, 0x5000)
        asm.sw(Reg.t1, 0, Reg.t2)
        asm.li(Reg.t3, 0)
        asm.tmc(Reg.t3)
        return asm.assemble()

    observed = {}
    for spec in ("funcsimref", "funcsim"):
        driver = create_driver(spec, VortexConfig())
        program = build()
        driver.memory.load_words(program.base, program.words)
        driver.run(program.entry)
        observed[spec] = driver.memory.read_word(0x5000)
    assert observed["funcsimref"] == observed["funcsim"]
    assert observed["funcsim"] == 3  # three instructions retired before the read


# -- step-level oracle: every instruction's timing facts, named by PC -------------------------

#: Kernel -> problem size; ``tex`` is the hardware-texture kernel, bfs diverges (split/join).
STEP_ORACLE_KERNELS = {"vecadd": 64, "saxpy": 64, "sgemm": 36, "bfs": 32, "sfilter": 36, "tex": 64}


def _step_oracle_kernel(name):
    from repro.kernels.texture import hardware_texture_kernel

    return hardware_texture_kernel("bilinear") if name == "tex" else KERNELS[name]()


def _staged_core(kernel_name, driver, config):
    """A device with the kernel staged and reset, plus its one functional core."""
    device = VortexDevice(config, driver=driver)
    kernel = _step_oracle_kernel(kernel_name)
    program = kernel.build_program()
    device.upload_program(program)
    context = kernel.setup(device, STEP_ORACLE_KERNELS[kernel_name])
    device.driver.processor.reset(program.entry)
    (core,) = device.driver.processor.cores
    return device, kernel, context, core


@pytest.mark.parametrize("geometry", [(4, 4), (2, 8)], ids=["4W-4T", "2W-8T"])
@pytest.mark.parametrize("kernel_name", list(STEP_ORACLE_KERNELS))
def test_timing_step_facts_match_scalar_step_by_step(kernel_name, geometry):
    """The facts ``TimingCore`` charges from — instruction, active lanes,
    redirect, request addresses — agree with the per-thread emulator after
    *every* instruction of a lockstep run (same round-robin warp order,
    separate memory images), so a disagreement names its PC instead of
    surfacing as a counter total thousands of cycles later."""
    config = VortexConfig().with_warps_threads(*geometry)
    staged = [_staged_core(kernel_name, driver, config) for driver in ("funcsimref", "funcsim")]
    (_, _, _, scalar_core), (_, _, _, vector_core) = staged
    steps = 0
    with np.errstate(all="ignore"):  # as the run loops do for lane plans
        while not scalar_core.done:
            progressed = False
            for scalar_warp, vector_warp in zip(scalar_core.warps, vector_core.warps):
                assert scalar_warp.schedulable == vector_warp.schedulable
                if not scalar_warp.schedulable:
                    continue
                pc = scalar_warp.pc
                expected = scalar_core.step_warp_timing(scalar_warp)
                step = vector_core.step_warp_timing(vector_warp)
                where = f"{kernel_name} step {steps} warp {scalar_warp.warp_id} pc {pc:#x}"
                assert step.instr == expected.instr, where
                where += f" ({expected.instr.mnemonic})"
                assert step.active_thread_count == expected.active_thread_count, where
                assert bool(step.taken_branch) == bool(expected.taken_branch), where
                requested = step.request_addresses
                assert [int(a) for a in (requested if requested is not None else ())] == list(
                    expected.request_addresses
                ), where
                steps += 1
                progressed = True
            assert progressed, f"{kernel_name}: deadlock after {steps} steps"
    assert vector_core.done and steps > 0
    for device, kernel, context, _ in staged:
        assert kernel.verify(device, context)
