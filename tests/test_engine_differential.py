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


def _architectural_state(driver):
    cores = driver.processor.cores
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
    return warps, driver.memory.page_snapshot()


def _run_kernel(kernel, driver, config, size):
    device = VortexDevice(config, driver=driver)
    run = kernel.run(device, size=size)
    assert run.passed, f"{kernel.name} failed verification on {driver}"
    return run.report, _architectural_state(device.driver)


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


# -- runs of warps at one PC execute as one lane plan ----------------------------------------


@pytest.fixture
def group_runs(monkeypatch):
    """Every group plan that executes on ``funcsim``, as ``(mnemonic, first
    warp, warp count)`` — the run-level counterpart of a per-warp plan."""
    from repro.core.vector_emulator import VectorWarpEmulator

    ran = []
    original = VectorWarpEmulator._build_group_plan

    def spy(self, pc, first, count):
        plan = original(self, pc, first, count)
        if plan is None:
            return None
        mnemonic = self.fetch(pc).mnemonic

        def run():
            executed = plan()
            if executed:
                ran.append((mnemonic, first, count))
            return executed

        return run

    monkeypatch.setattr(VectorWarpEmulator, "_build_group_plan", spy)
    return ran


def _state_at_the_limit(driver, budget):
    from repro.core.emulator import SimulationLimitExceeded
    from repro.runtime.launch import LaunchOptions

    device = VortexDevice(VortexConfig().with_warps_threads(4, 4), driver=driver)
    with pytest.raises(SimulationLimitExceeded):
        KERNELS["sgemm"]().run(device, size=36, options=LaunchOptions(max_instructions=budget))
    (core,) = device.driver.processor.cores
    warps = [
        (warp.pc, warp.instructions, warp.regs._int_regs.tobytes(), warp.regs._fp_regs.tobytes())
        for warp in core.warps
    ]
    return warps, device.memory.page_snapshot()


def test_instruction_budget_inside_a_group_raises_at_the_oracle_instruction(group_runs):
    """A budget that ends inside a run of warps at one PC raises at the same
    instruction as the per-thread oracle: every budget across the first
    rounds in which warps 1-3 run as one group leaves identical warps
    (PC, retired count, registers) and memory behind."""
    for budget in range(33, 49):
        assert _state_at_the_limit("funcsim", budget) == _state_at_the_limit(
            "funcsimref", budget
        ), f"budget {budget}"
    # The last run alone went through three rounds with a 3-warp group.
    group_runs.clear()
    _state_at_the_limit("funcsim", 48)
    assert [count for _, _, count in group_runs] == [3, 3, 3]


#: Data the edge-case kernel loads: 16 words (one per thread) straddling the
#: page boundary at 0x10000, with a signalling NaN and an infinity in them.
_EDGE_DATA = 0x10000 - 24
_EDGE_WORDS = [0x3F800000 + (gid << 16) for gid in range(16)]
_EDGE_WORDS[6] = 0x7F800001
_EDGE_WORDS[11] = 0x7F800000


def _edge_case_program():
    """Four warps of four threads meet at one PC and run through the group
    edge cases: a page-straddling word load (the in-order fallback), a NaN in
    one lane of a float group, branches that diverge inside exactly one warp
    of a group, a same-PC store of every thread to one address, and warp 3
    leaving with ``tmc 0`` so the next round's group is three warps long."""
    from repro.isa.builder import ProgramBuilder
    from repro.isa.csr import CSR
    from repro.isa.registers import FReg, Reg

    asm = ProgramBuilder(base=0x8000_0000)
    asm.csr_read(Reg.t0, CSR.NUM_WARPS)
    asm.la(Reg.t1, "spawned")
    asm.wspawn(Reg.t0, Reg.t1)
    asm.j("worker")
    # Warps 1-3 start here in the round of the wspawn, one round before
    # warp 0 takes its jump: every warp reaches "worker" in the same round.
    asm.label("spawned")
    asm.nop()
    asm.nop()
    asm.label("worker")
    asm.csr_read(Reg.t0, CSR.NUM_THREADS)
    asm.tmc(Reg.t0)
    asm.csr_read(Reg.t2, CSR.WARP_ID)
    asm.csr_read(Reg.t3, CSR.THREAD_ID)
    asm.slli(Reg.a1, Reg.t2, 2)
    asm.add(Reg.a1, Reg.a1, Reg.t3)  # global thread id
    asm.slli(Reg.a2, Reg.a1, 2)
    asm.li(Reg.a0, _EDGE_DATA)
    asm.add(Reg.a3, Reg.a0, Reg.a2)
    asm.li(Reg.s0, 2)
    asm.label("loop")
    asm.lw(Reg.s1, 0, Reg.a3)
    asm.flw(FReg.ft1, 0, Reg.a3)
    asm.fadd_s(FReg.ft2, FReg.ft1, FReg.ft1)
    asm.fmadd_s(FReg.ft3, FReg.ft1, FReg.ft1, FReg.ft2)
    asm.addi(Reg.s0, Reg.s0, -1)
    asm.bnez(Reg.s0, "loop")
    # Thread 9 alone takes the branch: warp 2 diverges and follows lane 0.
    asm.addi(Reg.t4, Reg.a1, -9)
    asm.seqz(Reg.t4, Reg.t4)
    asm.bnez(Reg.t4, "nine")
    asm.addi(Reg.s2, Reg.s2, 1)
    asm.label("nine")
    # Thread 8 alone takes it: warp 2 diverges and jumps, the run splits
    # and meets again at "rejoin" (both paths are two instructions long).
    asm.addi(Reg.t4, Reg.a1, -8)
    asm.seqz(Reg.t4, Reg.t4)
    asm.bnez(Reg.t4, "eight")
    asm.addi(Reg.s3, Reg.s3, 1)
    asm.j("rejoin")
    asm.label("eight")
    asm.addi(Reg.s3, Reg.s3, 2)
    asm.nop()
    asm.label("rejoin")
    asm.li(Reg.a4, 0x20000)
    asm.sw(Reg.a1, 0, Reg.a4)  # thread 15 of warp 3 writes last
    asm.li(Reg.t4, 3)
    asm.bne(Reg.t2, Reg.t4, "stay")
    asm.tmc(Reg.zero)
    asm.label("stay")
    asm.lw(Reg.s4, 0, Reg.a4)
    asm.flw(FReg.ft4, 0, Reg.a3)
    asm.fmul_s(FReg.ft5, FReg.ft4, FReg.ft4)
    asm.add(Reg.s5, Reg.s4, Reg.a1)
    asm.li(Reg.a6, 0x30000)
    asm.add(Reg.a6, Reg.a6, Reg.a2)
    asm.sw(Reg.s5, 0, Reg.a6)
    asm.fsw(FReg.ft5, 64, Reg.a6)
    asm.fsw(FReg.ft3, 128, Reg.a6)
    asm.tmc(Reg.zero)
    return asm.assemble()


def test_group_edge_cases_match_the_scalar_reference(group_runs):
    from repro.runtime.registry import create_driver

    program = _edge_case_program()
    finished = {}
    for spec in ("funcsimref", "funcsim"):
        driver = create_driver(spec, VortexConfig().with_warps_threads(4, 4))
        driver.memory.load_words(program.base, program.words)
        driver.memory.load_words(_EDGE_DATA, _EDGE_WORDS)
        driver.run(program.entry)
        finished[spec] = (
            _architectural_state(driver),
            driver.processor.counters(),
        )
    (ref_warps, ref_memory), ref_counters = finished["funcsimref"]
    (vec_warps, vec_memory), vec_counters = finished["funcsim"]
    for ref_warp, vec_warp in zip(ref_warps, vec_warps):
        assert np.array_equal(ref_warp[2], vec_warp[2]), f"warp {ref_warp[1]} x-registers"
        assert np.array_equal(ref_warp[3], vec_warp[3]), f"warp {ref_warp[1]} f-registers"
        assert ref_warp[4] == vec_warp[4]
    assert ref_memory == vec_memory
    assert ref_counters == vec_counters
    assert vec_counters["core0"]["divergent_branches"] == 2
    assert finished["funcsim"][0][1][0x20000 >> 12][:4] == (15).to_bytes(4, "little")
    # Each case ran grouped: the 4-warp loop, the 4-warp branches (one warp
    # diverging), and the three warps left after warp 3's exit.
    assert {("fmadd.s", 0, 4), ("bne", 0, 4), ("sltiu", 0, 4), ("fmul.s", 0, 3)} <= set(
        group_runs
    )
    # The straddling load missed as four and as three warps, and hit as the
    # two warps past the boundary once anchored there.
    assert ("lw", 0, 4) not in group_runs and ("lw", 0, 3) not in group_runs
    assert ("lw", 2, 2) in group_runs


def test_sgemm_inner_loop_executes_as_warp_groups(group_runs):
    """On a 4W-4T sgemm the inner loop's instructions run as 3-warp groups
    (warps 1-3 after ``wspawn``; warp 0 trails one PC behind), and most
    warp instructions retire inside a group — the engine's speed rests on
    this, and no wall-clock measurement is needed to see it lost."""
    device = VortexDevice(VortexConfig().with_warps_threads(4, 4), driver="funcsim")
    run = KERNELS["sgemm"]().run(device, size=16 * 16)
    assert run.passed
    grouped = {mnemonic for mnemonic, _, count in group_runs if count == 3}
    assert {"flw", "fmadd.s", "addi", "add", "blt"} <= grouped
    # 70 % measured (75 % at 74 x 74); warp 0 runs alone.
    in_groups = sum(count for _, _, count in group_runs)
    assert in_groups >= 0.65 * run.report.instructions
