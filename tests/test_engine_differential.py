"""Differential test: the vectorized engine vs the scalar reference.

Every kernel in ``repro/kernels`` runs on ``funcsim`` and on the per-thread
oracle ``funcsimref`` (``tests/conftest.py``) with the same inputs and the
final architectural state must be bit-identical:
integer and floating-point registers of every warp of every core, the
retired-instruction counts, and all of device memory — and so must every
core's performance counters and ``instret`` CSR.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import VortexConfig
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import Reg
from repro.kernels import KERNELS
from repro.kernels.base import Kernel
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
    """The report, the architectural state and each core's ``instret``."""
    device = VortexDevice(config, driver=driver)
    run = kernel.run(device, size=size)
    assert run.passed, f"{kernel.name} failed verification on {driver}"
    instret = [core.csr.instret for core in device.driver.processor.cores]
    return run.report, _architectural_state(device.driver), instret


def _run(kernel_name, driver, config, size):
    return _run_kernel(KERNELS[kernel_name](), driver, config, size)


@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_vector_engine_matches_scalar_reference(kernel_name):
    config = VortexConfig()
    scalar_report, (scalar_warps, scalar_memory), scalar_instret = _run(
        kernel_name, "funcsimref", config, size=64
    )
    vector_report, (vector_warps, vector_memory), vector_instret = _run(
        kernel_name, "funcsim", config, size=64
    )

    assert scalar_report.instructions == vector_report.instructions
    assert scalar_report.thread_instructions == vector_report.thread_instructions
    assert scalar_report.counters == vector_report.counters
    assert scalar_instret == vector_instret

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
    scalar_report, (scalar_warps, scalar_memory), scalar_instret = _run(
        "sgemm", "funcsimref", config, size=36
    )
    vector_report, (vector_warps, vector_memory), vector_instret = _run(
        "sgemm", "funcsim", config, size=36
    )
    for scalar_warp, vector_warp in zip(scalar_warps, vector_warps):
        assert np.array_equal(scalar_warp[2], vector_warp[2])
        assert np.array_equal(scalar_warp[3], vector_warp[3])
    assert scalar_memory == vector_memory
    assert scalar_report.counters == vector_report.counters
    assert scalar_instret == vector_instret


def test_vector_engine_matches_scalar_multicore():
    config = VortexConfig(num_cores=2)
    scalar_report, (scalar_warps, scalar_memory), scalar_instret = _run(
        "vecadd", "funcsimref", config, size=96
    )
    vector_report, (vector_warps, vector_memory), vector_instret = _run(
        "vecadd", "funcsim", config, size=96
    )
    for scalar_warp, vector_warp in zip(scalar_warps, vector_warps):
        assert np.array_equal(scalar_warp[2], vector_warp[2])
        assert scalar_warp[4] == vector_warp[4]
    assert scalar_memory == vector_memory
    assert scalar_report.counters == vector_report.counters
    assert scalar_instret == vector_instret


@pytest.mark.parametrize("mode", ["point", "bilinear", "trilinear"])
@pytest.mark.parametrize("use_hw", [True, False])
def test_texture_kernels_match_scalar_reference(mode, use_hw):
    """The ``tex`` fast path (and the all-software sampling codegen) must be
    bit-identical between the engines: registers, memory, retired counts."""
    from repro.kernels.texture import TextureKernel

    config = VortexConfig()
    scalar_report, (scalar_warps, scalar_memory), _ = _run_kernel(
        TextureKernel(mode=mode, use_hw=use_hw), "funcsimref", config, size=64
    )
    vector_report, (vector_warps, vector_memory), _ = _run_kernel(
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
    vector_report, _, _ = _run("saxpy", "funcsim", config, size=64)
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


# -- sub-word loads and stores ---------------------------------------------------------------


class SubwordKernel(Kernel):
    """Task ``i`` stores ``v = 37 i + 100`` to byte ``i`` (``sb``) and
    ``257 v`` to half ``i`` (``sh``), loads both back with ``lb``, ``lbu``,
    ``lh`` and ``lhu`` (most values set the sign bit), and writes their sum
    to word ``i``; then odd tasks alone, under a ``split`` on ``i & 1`` (the
    lane's parity), overwrite both with ``v + 0x55`` and add its ``lb``.
    Every lane has its own byte and half, so a warp's sub-word requests
    share words and lines.  The byte array's address is loaded into the
    load's own base register.

    Argument block: ``num_tasks, bytes, halves, out``.
    """

    name = "subword"

    def emit_body(self, asm: ProgramBuilder) -> None:
        asm.addi(Reg.t0, Reg.a1, 4)
        asm.lw(Reg.t0, 0, Reg.t0)  # a load that overwrites its base register
        asm.add(Reg.t0, Reg.t0, Reg.a0)  # &bytes[i]
        asm.lw(Reg.t1, 8, Reg.a1)
        asm.slli(Reg.t2, Reg.a0, 1)
        asm.add(Reg.t1, Reg.t1, Reg.t2)  # &halves[i]
        asm.li(Reg.t2, 37)
        asm.mul(Reg.t3, Reg.a0, Reg.t2)
        asm.addi(Reg.t3, Reg.t3, 100)  # v
        asm.slli(Reg.t4, Reg.t3, 8)
        asm.add(Reg.t4, Reg.t4, Reg.t3)  # 257 v
        asm.sb(Reg.t3, 0, Reg.t0)
        asm.sh(Reg.t4, 0, Reg.t1)
        asm.lb(Reg.t5, 0, Reg.t0)
        asm.lbu(Reg.t6, 0, Reg.t0)
        asm.lh(Reg.a2, 0, Reg.t1)
        asm.lhu(Reg.a3, 0, Reg.t1)
        asm.add(Reg.a4, Reg.t5, Reg.t6)
        asm.add(Reg.a4, Reg.a4, Reg.a2)
        asm.add(Reg.a4, Reg.a4, Reg.a3)
        # The runtime's if-shape: the taken lanes' join hands over to the rest.
        asm.andi(Reg.a5, Reg.a0, 1)
        asm.split(Reg.a5)
        asm.beqz(Reg.a5, "subword_even")
        asm.addi(Reg.a6, Reg.t3, 0x55)
        asm.sb(Reg.a6, 0, Reg.t0)
        asm.sh(Reg.a6, 0, Reg.t1)
        asm.lb(Reg.a7, 0, Reg.t0)
        asm.add(Reg.a4, Reg.a4, Reg.a7)
        asm.join()
        asm.j("subword_store")
        asm.label("subword_even")
        asm.join()
        asm.label("subword_store")
        asm.lw(Reg.t2, 12, Reg.a1)
        asm.slli(Reg.t5, Reg.a0, 2)
        asm.add(Reg.t2, Reg.t2, Reg.t5)
        asm.sw(Reg.a4, 0, Reg.t2)
        asm.ret()

    #: Element types of the byte, half and output arrays.
    dtypes = (np.uint8, np.uint16, np.uint32)

    def setup(self, device: VortexDevice, size: int) -> dict:
        buffers = [device.alloc_array(np.zeros(size, dtype=dtype)) for dtype in self.dtypes]
        self.write_args(device, [size, *(buffer.address for buffer in buffers)])
        return {"buffers": buffers, "size": size}

    def verify(self, device: VortexDevice, context: dict) -> bool:
        def signed(values, bits):
            return values - ((values >> (bits - 1)) & 1) * (1 << bits)

        size = context["size"]
        tasks = np.arange(size, dtype=np.int64)
        odd = tasks % 2 == 1
        value = tasks * 37 + 100
        late = value + 0x55
        byte, half = value & 0xFF, (value * 257) & 0xFFFF
        total = signed(byte, 8) + byte + signed(half, 16) + half
        total += np.where(odd, signed(late & 0xFF, 8), 0)
        expected = (
            np.where(odd, late & 0xFF, byte),
            np.where(odd, late & 0xFFFF, half),
            total & 0xFFFF_FFFF,
        )
        return all(
            np.array_equal(buffer.read(dtype, size), want.astype(dtype))
            for buffer, want, dtype in zip(context["buffers"], expected, self.dtypes)
        )


def _subword_run(driver, config):
    """The sub-word kernel's report, registers, memory and ``instret`` on ``driver``."""
    device = VortexDevice(config, driver=driver)
    run = SubwordKernel().run(device, size=36)
    assert run.passed, f"subword failed verification on {driver}"
    warps, pages = _architectural_state(device.driver)
    registers = [(core, warp, x.tobytes(), f.tobytes(), n) for core, warp, x, f, n in warps]
    cores = [getattr(core, "func", core) for core in device.driver.processor.cores]
    return run.report, registers, pages, [core.csr.instret for core in cores]


@pytest.mark.parametrize("geometry", [(4, 4), (2, 8)], ids=["4W-4T", "2W-8T"])
@pytest.mark.parametrize(
    "drivers", [("funcsimref", "funcsim"), ("simxref", "simx")], ids=["funcsim", "simx"]
)
def test_subword_memory_ops_match_the_scalar_reference(drivers, geometry):
    """``sb``/``sh``/``lb``/``lbu``/``lh``/``lhu`` on per-lane bytes and
    halves, inside and outside a lane-divergent ``split``: the lane-plan
    driver ends in the oracle's registers, memory, ``instret``, cycles and
    counters."""
    from repro.runtime.jobs import diff_execution_reports

    config = VortexConfig().with_warps_threads(*geometry)
    (reference, *expected), (report, *state) = (_subword_run(d, config) for d in drivers)
    assert diff_execution_reports(reference, report) == []
    assert state == expected


# -- step-level oracle: every instruction's timing facts, named by PC -------------------------

#: Kernel -> problem size; ``tex`` is the hardware-texture kernel, bfs diverges
#: (split/join), ``subword`` is :class:`SubwordKernel`.
STEP_ORACLE_KERNELS = {
    "vecadd": 64, "saxpy": 64, "sgemm": 36, "bfs": 32, "sfilter": 36, "tex": 64, "subword": 36,
}


def _step_oracle_kernel(name):
    from repro.kernels.texture import hardware_texture_kernel

    if name == "subword":
        return SubwordKernel()
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
    """What ``TimingCore`` charges from — the ``(taken, addresses)`` pair
    ``step_warp_timing`` returns and the active lanes at issue — agrees
    with the per-thread emulator after *every* instruction of a lockstep
    run (same round-robin warp order, separate memory images), so a
    disagreement names its PC instead of surfacing as a counter total
    thousands of cycles later."""
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
                mnemonic = scalar_core.emulator.fetch(pc).mnemonic
                warp_id = scalar_warp.warp_id
                where = f"{kernel_name} step {steps} warp {warp_id} pc {pc:#x} ({mnemonic})"
                assert vector_warp.pc == pc, where
                assert vector_warp.active_count == scalar_warp.active_count, where
                expected_taken, expected_addresses = scalar_core.step_warp_timing(scalar_warp)
                taken, addresses = vector_core.step_warp_timing(vector_warp)
                assert taken is expected_taken, where
                assert [int(a) for a in addresses or ()] == expected_addresses, where
                steps += 1
                progressed = True
            assert progressed, f"{kernel_name}: deadlock after {steps} steps"
    assert vector_core.done and steps > 0
    for device, kernel, context, _ in staged:
        assert kernel.verify(device, context)


# -- runs of warps at one PC execute as one lane plan ----------------------------------------


class _BlockRuns(list):
    """``(mnemonic, first warp, warp count)`` per grouped instruction, plus
    the number of block calls that executed them."""

    calls = 0


@pytest.fixture
def group_runs(monkeypatch):
    """Every instruction a block executes on ``funcsim``, as ``(mnemonic,
    first warp, warp count)`` — the run-level counterpart of a per-warp plan
    — and (``.calls``) how many block calls executed anything."""
    from repro.core.vector_emulator import VectorWarpEmulator

    ran = _BlockRuns()
    original = VectorWarpEmulator._build_block

    def spy(self, pc, first, count):
        built = original(self, pc, first, count)
        if built is None:
            return None
        length, block = built
        mnemonics = [self.fetch(pc + 4 * index).mnemonic for index in range(length)]

        def run(limit):
            executed = block(limit)
            ran.extend([(mnemonics[i % length], first, count) for i in range(executed)])
            ran.calls += executed > 0
            return executed

        return length, run

    monkeypatch.setattr(VectorWarpEmulator, "_build_block", spy)
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


def test_instruction_budget_raises_at_the_oracle_instruction():
    """A budget raises at the same instruction as the per-thread oracle:
    every budget across the first rounds in which warps 1-3 run side by side
    leaves identical warps (PC, retired count, registers) and memory
    behind."""
    for budget in range(33, 49):
        assert _state_at_the_limit("funcsim", budget) == _state_at_the_limit(
            "funcsimref", budget
        ), f"budget {budget}"


#: Data the edge-case kernel loads: 16 words (one per thread) straddling the
#: page boundary at 0x10000, with a signalling NaN and an infinity in them.
_EDGE_DATA = 0x10000 - 24
_EDGE_WORDS = [0x3F800000 + (gid << 16) for gid in range(16)]
_EDGE_WORDS[6] = 0x7F800001
_EDGE_WORDS[11] = 0x7F800000


def _edge_case_program():
    """Four warps of four threads meet at one PC and run through the group
    edge cases in private loops, so inside windows: a page-straddling word
    load (gathered across pages), a NaN in one lane of a float group and
    branches that diverge inside exactly one warp of a group.  Between the
    loops come a same-PC store of every thread to one address and warp 3
    leaving with ``tmc 0``, so the second loop's groups are three warps
    long."""
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
    # Warps 0-2 run this while warp 3 leaves; then the loop is all private.
    asm.li(Reg.s0, 2)
    asm.label("tail")
    asm.lw(Reg.s6, 0, Reg.a3)
    asm.flw(FReg.ft4, 0, Reg.a3)
    asm.fmul_s(FReg.ft5, FReg.ft4, FReg.ft4)
    asm.addi(Reg.s0, Reg.s0, -1)
    asm.bnez(Reg.s0, "tail")
    asm.lw(Reg.s4, 0, Reg.a4)
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
    # Each case ran grouped, inside a window: the 4-warp loop, the 4-warp
    # branches (one warp diverging), and the three warps left after warp 3's
    # exit.
    assert {("fmadd.s", 0, 4), ("bne", 0, 4), ("sltiu", 0, 4), ("fmul.s", 0, 3)} <= set(
        group_runs
    )
    # The straddling load ran as four and as three warps, across the page
    # boundary.
    assert ("lw", 0, 4) in group_runs and ("lw", 0, 3) in group_runs


def test_grouped_divisions_match_the_scalar_reference(group_runs):
    """``div``/``divu``/``rem``/``remu`` run as 4-warp groups, one lane of
    warp 2 dividing ``INT_MIN`` by -1 and the next one dividing by zero."""
    from repro.isa.registers import Reg

    asm = _spawned_workers()
    # lhs = (gid - 8) * 12345, plus INT_MIN for gid 8; rhs = gid - 9.
    asm.addi(Reg.t4, Reg.a1, -8)
    asm.seqz(Reg.t5, Reg.t4)
    asm.slli(Reg.t5, Reg.t5, 31)
    asm.li(Reg.t6, 12345)
    asm.mul(Reg.s1, Reg.t4, Reg.t6)
    asm.add(Reg.s1, Reg.s1, Reg.t5)
    asm.addi(Reg.s2, Reg.a1, -9)
    asm.div(Reg.s3, Reg.s1, Reg.s2)
    asm.divu(Reg.s4, Reg.s1, Reg.s2)
    asm.rem(Reg.s5, Reg.s1, Reg.s2)
    asm.remu(Reg.s6, Reg.s1, Reg.s2)
    asm.slli(Reg.t4, Reg.a1, 4)
    asm.add(Reg.t4, Reg.t4, Reg.a4)
    asm.sw(Reg.s3, 0, Reg.t4)
    asm.sw(Reg.s4, 4, Reg.t4)
    asm.sw(Reg.s5, 8, Reg.t4)
    asm.sw(Reg.s6, 12, Reg.t4)
    asm.tmc(Reg.zero)
    program = asm.assemble()
    ref, ref_raised = _rollback_driver("funcsimref", program)
    vec, vec_raised = _rollback_driver("funcsim", program)
    assert ref_raised is vec_raised is None
    assert _full_state(vec) == _full_state(ref)
    regs = vec.processor.cores[0].warps[2].regs
    assert [regs.read_int(0, Reg.s3), regs.read_int(1, Reg.s3)] == [0x8000_0000, 0xFFFF_FFFF]
    assert [regs.read_int(0, Reg.s5), regs.read_int(1, Reg.s5)] == [0, 12345]
    assert {("div", 0, 4), ("divu", 0, 4), ("rem", 0, 4), ("remu", 0, 4)} <= set(group_runs)


def test_sgemm_inner_loop_executes_as_warp_groups(group_runs):
    """On a 4W-4T sgemm the inner loop's instructions run as 4-warp groups
    — warp 0 trails warps 1-3 by two PCs (its ``wspawn`` and ``j``), and
    private windows let it catch up — nearly every warp instruction retires
    inside a group, and a block goes round the inner loop many times per
    call: the engine's speed rests on this, and no wall-clock measurement is
    needed to see it lost."""
    device = VortexDevice(VortexConfig().with_warps_threads(4, 4), driver="funcsim")
    run = KERNELS["sgemm"]().run(device, size=16 * 16)
    assert run.passed
    grouped = {mnemonic for mnemonic, first, count in group_runs if (first, count) == (0, 4)}
    assert {"flw", "fmadd.s", "addi", "add", "blt", "divu", "remu"} <= grouped
    # Every group is a block: 98.6 % of warp instructions in 169 calls
    # measured.
    in_groups = sum(count for _, _, count in group_runs)
    assert in_groups >= 0.90 * run.report.instructions
    assert group_runs.calls <= in_groups / 20


def test_sgemm_inner_loop_runs_as_trip_summaries(funcsim_spy):
    """On a 4W-4T sgemm 48² the trip summary retires ≥ 95 % of the inner
    loop's warp trips (at most 47 of every 48: a call leaves the last trip
    to the per-trip path) — 96.5 % measured — and the per-trip path runs at
    most two trips per block call.  ``split``, ``join`` and ``jal`` run in
    windows, so each task is one window and ``Processor._round`` retires at
    most half of the 4,655 warp instructions it retired when they ended
    windows (1,779 measured: the ``fsw``, the ``ret`` and ``join`` after it,
    and the boot code)."""
    n = 48
    device = VortexDevice(VortexConfig().with_warps_threads(4, 4), driver="funcsim")
    assert KERNELS["sgemm"]().run(device, size=n * n).passed
    # Tasks per thread x trips per task x warps.
    trips = n * n // 16 * n * 4
    assert funcsim_spy.built >= 1
    assert sum([call.warps * call.trips for call in funcsim_spy.summaries]) >= 0.95 * trips
    for call in funcsim_spy.summaries:
        assert -(-(call.executed - call.trips * call.length) // call.length) <= 2
    assert sum(funcsim_spy.rounds.values()) <= 4655 // 2
    assert {"split", "jal"}.isdisjoint(
        mnemonic for mnemonic, count in funcsim_spy.rounds.items() if count > 3
    )


def test_a_declined_trip_summary_allocates_no_page():
    """A summary that declines writes nothing and allocates no page: here
    the first load of each trip reads a page nothing has touched and warp
    2's second load turns misaligned on trip 1, so the per-trip path stops
    there with the oracle, having allocated two of the cold pages, not one
    per trip the summary would have gathered."""
    from repro.isa.builder import ProgramBuilder
    from repro.isa.registers import Reg
    from repro.runtime.registry import create_driver

    asm = ProgramBuilder(base=0x8000_0000)
    asm.label("loop")
    asm.lw(Reg.s2, 0, Reg.s5)
    asm.lw(Reg.s3, 0, Reg.s6)
    asm.add(Reg.s5, Reg.s5, Reg.s8)
    asm.add(Reg.s6, Reg.s6, Reg.s9)
    asm.addi(Reg.s0, Reg.s0, 1)
    asm.blt(Reg.s0, Reg.s4, "loop")
    asm.tmc(Reg.zero)
    program = asm.assemble()

    def staged(spec):
        driver = create_driver(spec, VortexConfig().with_warps_threads(4, 4))
        driver.memory.load_words(program.base, program.words)
        driver.memory.load_words(0x100, list(range(1, 128)))
        (core,) = driver.processor.cores
        for warp in core.warps:
            warp.spawn(program.entry, tmask=0xF)
            for reg, value in [(Reg.s4, 10), (Reg.s5, 0x9000_0000), (Reg.s6, 0x100),
                               (Reg.s8, 4096), (Reg.s9, 6 if warp.warp_id == 2 else 4)]:
                warp.regs.broadcast_int(reg, value)
        return driver, core

    def state(driver, core):
        warps = [(w.pc, w.instructions, w.regs._int_regs.tobytes()) for w in core.warps]
        return warps, sorted(driver.memory._pages), driver.memory.reads

    driver, core = staged("funcsim")
    length, run = core.emulator._build_block(program.entry, 0, 4)
    with np.errstate(all="ignore"):  # as inside VectorProcessor.run
        executed = run(100)
    assert executed == length + 1
    ref, ref_core = staged("funcsimref")
    for warp in ref_core.warps:
        for _ in range(executed):
            ref_core.step_warp(warp)
    assert state(driver, core) == state(ref, ref_core)
    assert 0x9000_0000 >> 12 in driver.memory._pages
    assert (0x9000_0000 >> 12) + 2 not in driver.memory._pages


def test_a_block_runs_up_to_its_limit_as_the_oracle_steps(funcsim_spy):
    """A block over four full-mask warps at a loop's head goes round the
    loop until ``limit`` or until a warp leaves it (warp ``w`` makes
    ``10 - w`` trips), and leaves each warp where stepping it that many
    instructions on the per-thread oracle does: PC, retired count and
    registers.  Closed by ``blt`` on its induction register, the loop runs
    as a trip summary up to one trip before the first exit."""
    from repro.isa.builder import ProgramBuilder
    from repro.isa.registers import Reg
    from repro.runtime.registry import create_driver

    for closing in ("bnez", "blt"):
        asm = ProgramBuilder(base=0x8000_0000)
        asm.label("loop")
        asm.addi(Reg.s0, Reg.s0, 1)
        asm.mul(Reg.s1, Reg.s0, Reg.s0)
        asm.slli(Reg.t1, Reg.s0, 2)
        asm.lw(Reg.s2, 0x100, Reg.t1)
        asm.add(Reg.s3, Reg.s3, Reg.s2)
        asm.slti(Reg.t0, Reg.s0, 10)
        if closing == "blt":
            asm.blt(Reg.s0, Reg.s4, "loop")
        else:
            asm.bnez(Reg.t0, "loop")
        asm.tmc(Reg.zero)
        program = asm.assemble()

        def staged(spec, program=program):
            driver = create_driver(spec, VortexConfig().with_warps_threads(4, 4))
            driver.memory.load_words(program.base, program.words)
            driver.memory.load_words(0x100, list(range(1, 128)))
            (core,) = driver.processor.cores
            for warp in core.warps:
                warp.spawn(program.entry, tmask=0xF)
                warp.regs.broadcast_int(Reg.s0, warp.warp_id)
                warp.regs.broadcast_int(Reg.s4, 10)
            return core

        def warps(core):
            return [(w.pc, w.instructions, w.regs._int_regs.tobytes()) for w in core.warps]

        for limit in (1, 6, 7, 8, 48, 49, 50, 100):
            core = staged("funcsim")
            length, run = core.emulator._build_block(program.entry, 0, 4)
            assert length == 7
            executed = run(limit)
            assert executed == min(limit, 49), f"limit {limit}"
            if closing == "blt":  # whole trips up to the last before the first exit
                trips = max(0, min(7, limit // 7) - 1)
                assert funcsim_spy.calls[-1].trips == trips, f"limit {limit}"
            ref = staged("funcsimref")
            for warp in ref.warps:
                for _ in range(executed):
                    ref.step_warp(warp)
            assert warps(core) == warps(ref), f"limit {limit}"


# -- private windows: rounds run out of order, rolled back where they must not -----------------

#: The word every thread of the rollback kernel stores its global id to, and
#: reads back.
_SHARED = 0x20000


def _spawned_workers():
    """A program builder past the boot code of four warps: each at
    ``worker`` with all threads on, ``t2`` its warp id, ``a1`` its global
    thread id and ``a4`` the shared word's address.  Warp 0 trails warps
    1-3 by two PCs (its ``wspawn`` and ``j``)."""
    from repro.isa.builder import ProgramBuilder
    from repro.isa.csr import CSR
    from repro.isa.registers import Reg

    asm = ProgramBuilder(base=0x8000_0000)
    asm.csr_read(Reg.t0, CSR.NUM_WARPS)
    asm.la(Reg.t1, "worker")
    asm.wspawn(Reg.t0, Reg.t1)
    asm.j("worker")
    asm.label("worker")
    asm.csr_read(Reg.t0, CSR.NUM_THREADS)
    asm.tmc(Reg.t0)
    asm.csr_read(Reg.t2, CSR.WARP_ID)
    asm.csr_read(Reg.t3, CSR.THREAD_ID)
    asm.slli(Reg.a1, Reg.t2, 2)
    asm.add(Reg.a1, Reg.a1, Reg.t3)
    asm.li(Reg.a4, _SHARED)
    return asm


def _rollback_program():
    """Four warps of four threads, warp 0 two PCs behind, through private
    loops that a window may run out of order, broken by what a window must
    never contain: a ``csrr`` of
    INSTRET mid-stretch, a same-word ``sw`` -> ``lw`` across warps (warps
    1-3 load warp 3's id before warp 0 stores its own), and a misaligned
    ``lw`` of warp 2 that ends the kernel with ``MemoryAccessError``."""
    from repro.isa.csr import CSR
    from repro.isa.registers import Reg

    asm = _spawned_workers()

    def stretch(name, trips):
        asm.li(Reg.s0, trips)
        asm.label(name)
        asm.addi(Reg.s1, Reg.s1, 3)
        asm.xor(Reg.s2, Reg.s2, Reg.s1)
        asm.mul(Reg.s3, Reg.s1, Reg.a1)
        asm.lw(Reg.s5, 0, Reg.a4)
        asm.add(Reg.s5, Reg.s5, Reg.s3)
        asm.addi(Reg.s0, Reg.s0, -1)
        asm.bnez(Reg.s0, name)

    stretch("first", 20)
    asm.csr_read(Reg.s4, CSR.INSTRET)
    stretch("second", 20)
    asm.sw(Reg.a1, 0, Reg.a4)
    asm.lw(Reg.s6, 0, Reg.a4)
    stretch("third", 12)
    # 2 for warp 2, else 0: only warp 2's last load is misaligned.
    asm.addi(Reg.t4, Reg.t2, -2)
    asm.seqz(Reg.t4, Reg.t4)
    asm.slli(Reg.t4, Reg.t4, 1)
    asm.add(Reg.t5, Reg.a4, Reg.t4)
    stretch("fourth", 6)
    asm.lw(Reg.s7, 0, Reg.t5)
    asm.tmc(Reg.zero)
    return asm.assemble()


def _rollback_driver(spec, program=None, **run):
    """``program`` (the rollback kernel by default) on ``spec`` at 4W-4T,
    run until it pauses, ends or raises; returns the driver and the type of
    what it raised."""
    from repro.core.emulator import SimulationLimitExceeded
    from repro.mem.memory import MemoryAccessError
    from repro.runtime.launch import LaunchOptions
    from repro.runtime.registry import create_driver

    program = program or _rollback_program()
    driver = create_driver(spec, VortexConfig().with_warps_threads(4, 4))
    driver.memory.load_words(program.base, program.words)
    budget = run.pop("max_instructions", None)
    try:
        driver.run(program.entry, LaunchOptions(max_instructions=budget), **run)
    except (MemoryAccessError, SimulationLimitExceeded) as exc:
        return driver, type(exc)
    return driver, None


def _full_state(driver):
    warps, pages = _architectural_state(driver)
    return (
        [(core, warp, x.tobytes(), f.tobytes(), n) for core, warp, x, f, n in warps],
        [warp.pc for core in driver.processor.cores for warp in core.warps],
        pages,
        driver.processor.counters(),
        (driver.memory.reads, driver.memory.writes),
    )


@pytest.fixture
def windows(monkeypatch):
    """Counts ``funcsim``'s committed windows and rollbacks, and checks that
    each rollback leaves ``processor.snapshot()`` as the window found it."""
    import pickle

    from repro.core.processor import VectorProcessor

    seen = {"committed": 0, "rolled_back": 0}
    window, roll_back = VectorProcessor._window, VectorProcessor._roll_back

    def spy_window(self, *args):
        seen["start"] = pickle.dumps(self.snapshot())
        committed = window(self, *args)
        seen["committed"] += committed > 0
        return committed

    def spy_roll_back(self, saved):
        roll_back(self, saved)
        seen["rolled_back"] += 1
        assert pickle.dumps(self.snapshot()) == seen["start"]

    monkeypatch.setattr(VectorProcessor, "_window", spy_window)
    monkeypatch.setattr(VectorProcessor, "_roll_back", spy_roll_back)
    return seen


def test_rolled_back_windows_match_the_scalar_reference(windows):
    """Windows commit through the private loops and roll back at the CSR
    read, the store and the misaligned load: at every pause, at every
    budget and where the kernel raises, funcsim's registers, PCs, memory,
    counters and access counts are the oracle's."""
    from repro.core.emulator import SimulationLimitExceeded
    from repro.isa.registers import Reg
    from repro.mem.memory import MemoryAccessError

    ref, raised = _rollback_driver("funcsimref")
    assert raised is MemoryAccessError
    vec, raised = _rollback_driver("funcsim")
    assert raised is MemoryAccessError
    assert _full_state(vec) == _full_state(ref)
    assert windows["committed"] >= 1 and windows["rolled_back"] >= 1
    # Warps 1-3 load warp 3's id; warp 0 stores its own before its load.
    assert [warp.regs.read_int(0, Reg.s6) for warp in vec.processor.cores[0].warps] == [
        3, 15, 15, 15
    ]
    total = ref.processor.cores[0].perf.get("instructions")
    for stop in range(5, total, 29):
        pair = [_rollback_driver(spec, stop_after_instructions=stop) for spec in ("funcsimref", "funcsim")]
        assert [raised for _, raised in pair] == [None, None], f"pause {stop}"
        assert _full_state(pair[1][0]) == _full_state(pair[0][0]), f"pause {stop}"
    for budget in range(40, total, 83):
        pair = [_rollback_driver(spec, max_instructions=budget) for spec in ("funcsimref", "funcsim")]
        assert [raised for _, raised in pair] == [SimulationLimitExceeded] * 2, f"budget {budget}"
        assert _full_state(pair[1][0]) == _full_state(pair[0][0]), f"budget {budget}"


def _split_program():
    """Four warps (warp 0 two PCs behind) through ``split``/``join`` that
    windows run and roll back.  First a branch that diverges on warp 0
    alone, right before the core's first ``split``: round order counts
    that ``split`` (warps 1-3) before the divergent branch (warp 0), a
    window that regroups warp 0 first would not.  Then six trips of a loop
    whose body pushes a uniform, a per-warp (``t2 < 2``) and a uniform
    ``split`` and then reads INSTRET — so windows roll back past the pushes
    of a new ``max_occupancy`` — and pops them; 40 trips of a loop whose
    body is a uniform ``split``/``join`` region (a looping block, but no
    trip summary: it would skip the pushes and pops); then a lane-divergent
    ``split`` whose taken half re-enables every thread with ``tmc``, so a
    full-mask warp reaches a ``join`` whose entry is not a fall-through (it
    changes the mask and redirects)."""
    from repro.isa.csr import CSR
    from repro.isa.registers import Reg

    asm = _spawned_workers()
    asm.seqz(Reg.s8, Reg.t2)
    asm.and_(Reg.s9, Reg.t3, Reg.s8)
    asm.li(Reg.s11, 1)
    asm.bnez(Reg.s9, "first")
    asm.label("first")
    asm.split(Reg.s11)
    asm.join()
    asm.li(Reg.s4, 6)
    asm.label("outer")
    asm.split(Reg.s11)
    asm.slti(Reg.s10, Reg.t2, 2)
    asm.split(Reg.s10)
    asm.addi(Reg.s1, Reg.s1, 5)
    asm.mul(Reg.s2, Reg.s1, Reg.a1)
    asm.split(Reg.s11)
    asm.csr_read(Reg.s3, CSR.INSTRET)
    for _ in range(3):
        asm.join()
    asm.addi(Reg.s0, Reg.s0, 1)
    asm.blt(Reg.s0, Reg.s4, "outer")
    asm.li(Reg.s4, 46)
    asm.label("inner")
    asm.split(Reg.s11)
    asm.addi(Reg.s1, Reg.s1, 3)
    asm.join()
    asm.addi(Reg.s0, Reg.s0, 1)
    asm.blt(Reg.s0, Reg.s4, "inner")
    asm.andi(Reg.s9, Reg.t3, 1)
    asm.split(Reg.s9)
    asm.csr_read(Reg.t0, CSR.NUM_THREADS)
    asm.tmc(Reg.t0)
    asm.addi(Reg.s5, Reg.s5, 1)
    asm.addi(Reg.s6, Reg.s6, 7)
    asm.join()
    asm.addi(Reg.s7, Reg.s7, 1)
    asm.tmc(Reg.zero)
    return asm.assemble()


def test_split_and_join_in_windows_match_the_scalar_reference(windows, funcsim_spy):
    """Windows commit and roll back across uniform ``split``/``join`` (each
    rollback restores IPDOM entries and ``max_occupancy``: the ``windows``
    spy compares the snapshot), a loop through them runs as one block over
    all four warps, windows stop before the ``join`` that changes a mask,
    and funcsim ends and pauses in the oracle's state, checkpoint bytes
    included."""
    import pickle

    program = _split_program()
    ref, _ = _rollback_driver("funcsimref", program)
    vec, _ = _rollback_driver("funcsim", program)
    assert _full_state(vec) == _full_state(ref)
    assert windows["committed"] >= 1 and windows["rolled_back"] >= 1
    assert [w.ipdom.max_occupancy for w in vec.processor.cores[0].warps] == [3] * 4
    assert funcsim_spy.built == 0
    assert any([call.warps == 4 and call.executed >= 10 * call.length
                for call in funcsim_spy.calls])
    total = ref.processor.cores[0].perf.get("instructions")
    for stop in range(3, total, 11):
        pair = [_rollback_driver(spec, program, stop_after_instructions=stop)
                for spec in ("funcsimref", "funcsim")]
        assert _full_state(pair[1][0]) == _full_state(pair[0][0]), f"pause {stop}"
        snapshots = [pickle.dumps(driver.processor.snapshot()) for driver, _ in pair]
        assert snapshots[0] == snapshots[1], f"pause {stop}"


#: Private instructions for :func:`_private_program`: mnemonic -> whether it
#: takes an immediate.  ``a4`` holds the shared word's address, ``a1`` the
#: thread id.
_PRIVATE_OPS = {"addi": True, "slli": True, "add": False, "xor": False, "mul": False}
_PRIVATE_REGS = ["a1", "s1", "s2", "s3", "s4", "s5"]


#: ``split`` predicates of :func:`_private_program`, by ``imm % 3``: one
#: value for the whole run, one per warp (from ``t2``, the warp id), one per
#: lane (from ``t3``, the thread id).
_SPLIT_PREDICATES = ("uniform", "per-warp", "per-lane")


def _private_program(lags, body, special, position, misaligned=-1, regions=()):
    """Warp ``w`` spins ``lags[w]`` extra times, then every warp runs
    ``body`` (private ALU ops, loads of the shared word, forward branches
    that may diverge, backward loops that load a word per trip, 3 to 6
    trips plus one for odd ``w``, and forward ``jal ra`` calls of a
    function that ends in ``ret``) three times with ``special`` — a store of
    ``s1`` to the shared word or a ``csrr`` of INSTRET into it — at
    ``position``.  ``regions`` (at most 3 ``(first, last, kind)``) become
    nested ``split``/``join`` pairs: level ``i`` opens before body op
    ``first`` of the ``i``-th lowest, and closes before op ``last`` (or at
    the end) but never before the region inside it does; its predicate is
    of the :data:`_SPLIT_PREDICATES` kind ``kind % 3``.  The loops of warp
    ``misaligned`` step 5 bytes, not 4, so its second trip's load is
    misaligned."""
    from repro.isa.csr import CSR
    from repro.isa.registers import Reg

    opens = sorted([min(first, len(body)) for first, _, _ in regions])
    closes = [0] * len(regions)
    for level in reversed(range(len(regions))):  # innermost first: it bounds the rest
        inner = closes[level + 1] if level + 1 < len(regions) else opens[-1]
        closes[level] = max(inner, min(regions[level][1], len(body)))
    asm = _spawned_workers()
    asm.la(Reg.t0, "lags")
    asm.slli(Reg.t1, Reg.t2, 2)
    asm.add(Reg.t0, Reg.t0, Reg.t1)
    asm.lw(Reg.s0, 0, Reg.t0)
    asm.label("lag")
    asm.addi(Reg.s0, Reg.s0, -1)
    asm.bge(Reg.s0, Reg.zero, "lag")
    # The loops' load stride: 5 for warp ``misaligned``, else 4.
    asm.addi(Reg.s10, Reg.t2, -misaligned)
    asm.seqz(Reg.s10, Reg.s10)
    asm.addi(Reg.s10, Reg.s10, 4)
    asm.li(Reg.s6, 3)
    asm.label("body")
    functions = []
    for index in range(len(body) + 1):
        if index == position:
            if special == "sw":
                asm.sw(Reg.s1, 0, Reg.a4)
            else:
                asm.csr_read(Reg.s1, CSR.INSTRET)
        for level, first in enumerate(opens):
            if first == index:
                kind, imm = _SPLIT_PREDICATES[regions[level][2] % 3], regions[level][2]
                if kind == "uniform":
                    asm.li(Reg.s11, imm & 1)
                elif kind == "per-warp":
                    asm.slti(Reg.s11, Reg.t2, imm & 3)
                else:
                    asm.andi(Reg.s11, Reg.t3, 1 + (imm & 1))
                asm.split(Reg.s11)
        for last in reversed(closes):
            if last == index:
                asm.join()
        if index == len(body):
            break
        op, rd, rs1, rs2, imm = body[index]
        rd, rs1, rs2 = getattr(Reg, rd), getattr(Reg, rs1), getattr(Reg, rs2)
        if op == "lw":
            asm.lw(rd, 0, Reg.a4)
        elif op == "bltu":
            asm.bltu(rs1, rs2, f"skip{index}")
            asm.addi(rd, rd, imm)
            asm.label(f"skip{index}")
        elif op == "loop":
            asm.andi(Reg.s7, Reg.t2, 1)
            asm.addi(Reg.s7, Reg.s7, 3 + (imm & 3))
            asm.mv(Reg.s9, Reg.a4)
            asm.label(f"loop{index}")
            asm.add(rd, rd, rs1)
            asm.lw(Reg.s8, 0, Reg.s9)
            asm.xor(rd, rd, Reg.s8)
            asm.add(Reg.s9, Reg.s9, Reg.s10)
            asm.addi(Reg.s7, Reg.s7, -1)
            asm.bnez(Reg.s7, f"loop{index}")
        elif op == "call":
            asm.call(f"function{index}")
            functions.append((index, rd, imm))
        elif _PRIVATE_OPS[op]:
            asm.emit(op, rd, rs1, imm & 31 if op == "slli" else imm)
        else:
            asm.emit(op, rd, rs1, rs2)
    asm.addi(Reg.s6, Reg.s6, -1)
    asm.bnez(Reg.s6, "body")
    asm.tmc(Reg.zero)
    for index, rd, imm in functions:
        asm.label(f"function{index}")
        asm.addi(rd, rd, imm)
        asm.ret()
    asm.label("lags")
    for lag in lags:
        asm.word(lag)
    return asm.assemble()


_private_op = st.tuples(
    st.sampled_from(["loop", *_PRIVATE_OPS, "lw", "bltu", "call"]),
    st.sampled_from(_PRIVATE_REGS[1:]),
    st.sampled_from(_PRIVATE_REGS),
    st.sampled_from(_PRIVATE_REGS),
    st.integers(-64, 64),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    lags=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    body=st.lists(_private_op, min_size=4, max_size=24),
    special=st.sampled_from(["sw", "csrr"]),
    misaligned=st.sampled_from([-1, 3, -1, 1, -1, 0, 2]),
    regions=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24), st.integers(0, 5)),
                     max_size=3),
    data=st.data(),
)
def test_private_programs_match_the_scalar_reference(
    lags, body, special, misaligned, regions, data
):
    """Random private code at random warp lags, with one store or CSR read
    somewhere in it, loops whose exits part the warps, calls, and nested
    ``split``/``join`` regions that keep or change thread masks, ends in the
    oracle's state on funcsim — or raises where it does, at a misaligned
    load inside a loop — and pauses in it, checkpoint bytes included."""
    import pickle

    from repro.mem.memory import MemoryAccessError

    position = data.draw(st.integers(0, len(body)), label="position")
    program = _private_program(lags, body, special, position, misaligned, regions)
    ref, ref_raised = _rollback_driver("funcsimref", program, max_instructions=20_000)
    vec, vec_raised = _rollback_driver("funcsim", program, max_instructions=20_000)
    # Warp ``misaligned`` reaches the second trip of any loop.
    looped = any(op == "loop" for op, *_ in body)
    expected = MemoryAccessError if misaligned >= 0 and looped else None
    assert ref_raised is vec_raised is expected
    assert _full_state(vec) == _full_state(ref)
    total = ref.processor.cores[0].perf.get("instructions")
    stop = data.draw(st.integers(1, total), label="stop")
    pair = [_rollback_driver(spec, program, stop_after_instructions=stop)
            for spec in ("funcsimref", "funcsim")]
    assert pair[0][1] is pair[1][1], f"pause {stop}"
    assert _full_state(pair[1][0]) == _full_state(pair[0][0]), f"pause {stop}"
    snapshots = [pickle.dumps(driver.processor.snapshot()) for driver, _ in pair]
    assert snapshots[0] == snapshots[1], f"pause {stop}"


# -- counted loops: whole trips summarised, held to the per-thread oracle ---------------------

#: Words the counted loops load besides ordinary floats: quiet, signalling
#: and negative NaNs, the infinities, denormals and signed zeros.
_LOOP_SPECIALS = [
    0x7FC0_0000, 0x7F80_0001, 0xFFC0_0001, 0x7F80_0000, 0xFF80_0000,
    0x0000_0001, 0x807F_FFFF, 0x0000_0000, 0x8000_0000,
]
#: Load strides (bytes): none, one word either way, a matrix row and one
#: that crosses a page every few trips.
_LOOP_STRIDES = [0, 4, -4, 148, 1028]
#: Data words after the loop: the longest loop (32 trips) at the page-crossing
#: stride stays inside them.
_LOOP_WORDS = 10240
#: Where the cold load reads: a page nothing has touched.
_COLD = 0x9000_0000


def _counted_loop_program(case, seed):
    """Four warps through one counted loop (``s7`` from ``-step * warp`` in
    steps of ``step`` up to ``step * (trips + gid % 5)``, so with ``spread``
    the trip counts differ per warp and per lane) whose body loads 1-3
    words at affine addresses and folds them into 0-2 recurrences.  The
    loads' bases step by ``add`` of a stride register — warp
    ``misaligned``'s first load 2 bytes further each trip — or by ``addi``,
    before or after the loads; a ``cold`` load reads pages nothing has
    touched; ``carried`` adds ``s11 ^= s7``, a value carried from trip to
    trip that is neither an induction nor a recurrence."""
    from repro.isa.registers import FReg, Reg

    asm = _spawned_workers()
    step, trips, branch = case["step"], case["trips"], case["branch"]
    bases = [Reg.s1, Reg.s2, Reg.s3]
    fdest, idest = [FReg.fa1, FReg.fa2, FReg.fa3], [Reg.a5, Reg.a6, Reg.a7]
    strides = [Reg.t3, Reg.t5, Reg.t6]
    asm.la(Reg.s0, "data")
    asm.slli(Reg.t4, Reg.a1, 2)
    updates = []
    for j, (_, stride, offset, late) in enumerate(case["loads"]):
        if j == case["cold"]:
            asm.li(bases[j], _COLD)
        else:
            asm.li(bases[j], 8192 + offset if stride < 0 else offset)
            asm.add(bases[j], bases[j], Reg.s0)
        asm.add(bases[j], bases[j], Reg.t4)
        skew = j == 0 and case["misaligned"] >= 0
        if skew:  # 2 for warp ``misaligned``, else 0
            asm.addi(Reg.t0, Reg.t2, -case["misaligned"])
            asm.seqz(Reg.t0, Reg.t0)
            asm.slli(Reg.t0, Reg.t0, 1)
        asm.li(strides[j], stride)
        if skew:
            asm.add(strides[j], strides[j], Reg.t0)
            updates.append((late, "add", bases[j], strides[j]))
        else:
            updates.append((late, "addi", bases[j], stride) if abs(stride) < 2048 and j % 2
                           else (late, "add", bases[j], strides[j]))
    kinds = [kind for kind, *_ in case["loads"]]
    floats = [*(fdest[j] for j, kind in enumerate(kinds) if kind == "flw"), FReg.fs0]
    ints = [*(idest[j] for j, kind in enumerate(kinds) if kind == "lw"), Reg.s7]
    asm.flw(FReg.fs0, 4, Reg.s0)
    asm.flw(FReg.fs1, 8, Reg.s0)
    asm.flw(FReg.fs2, 12, Reg.s0)
    asm.lw(Reg.s9, 16, Reg.s0)
    asm.mv(Reg.s10, Reg.a1)
    asm.mv(Reg.s11, Reg.a1)
    # s7 = -step * warp; s8 = step * (trips + gid % 5); both without the
    # warp and lane terms unless ``spread``.
    asm.li(Reg.t0, -step if case["spread"] else 0)
    asm.mul(Reg.s7, Reg.t0, Reg.t2)
    asm.li(Reg.t0, 5 if case["spread"] else 1)
    asm.remu(Reg.s8, Reg.a1, Reg.t0)
    asm.addi(Reg.s8, Reg.s8, trips)
    asm.li(Reg.t0, step)
    asm.mul(Reg.s8, Reg.s8, Reg.t0)
    asm.label("loop")
    for late, op, rd, rs in updates:
        if not late:
            asm.emit(op, rd, rd, rs)
    for j, kind in enumerate(kinds):
        asm.emit(kind, (fdest if kind == "flw" else idest)[j], 0, bases[j])
    for index, (op, x, y, swap) in enumerate(case["recurrences"]):
        if op == "add":
            acc = [Reg.s9, Reg.s10][index]
            asm.add(acc, *((ints[x % len(ints)], acc) if swap else (acc, ints[x % len(ints)])))
            continue
        acc = [FReg.fs1, FReg.fs2][index]
        a, b = floats[x % len(floats)], floats[y % len(floats)]
        if op == "fmul+fadd":
            asm.emit("fmul.s", FReg.ft0, a, b)
            op, a = "fadd.s", FReg.ft0
        if op in ("fadd.s", "fmul.s"):
            asm.emit(op, acc, *((a, acc) if swap else (acc, a)))
        else:
            asm.emit(op, acc, a, b, acc)
    if case["carried"]:
        asm.xor(Reg.s11, Reg.s11, Reg.s7)
    for late, op, rd, rs in updates:
        if late:
            asm.emit(op, rd, rd, rs)
    asm.addi(Reg.s7, Reg.s7, step)
    if branch in ("blt", "bltu", "bne"):
        asm.emit(branch, Reg.s7, Reg.s8, "loop")
    else:  # s7 <= s8
        asm.emit(branch, Reg.s8, Reg.s7, "loop")
    asm.tmc(Reg.zero)
    asm.label("data")
    rng = np.random.default_rng(seed)
    words = rng.integers(0x3000_0000, 0x4100_0000, _LOOP_WORDS, dtype=np.uint32)
    words[rng.random(_LOOP_WORDS) < 0.5] |= np.uint32(0x8000_0000)
    specials = rng.random(_LOOP_WORDS) < 0.08
    words[specials] = rng.choice(_LOOP_SPECIALS, int(specials.sum()))
    for word in words.tolist():
        asm.word(word)
    return asm.assemble()


def _loop_case(rng):
    """A random :func:`_counted_loop_program` case."""
    def pick(options):
        return options[rng.integers(0, len(options))]

    loads = [
        (pick(["flw", "flw", "lw"]), pick(_LOOP_STRIDES), 4 * int(rng.integers(0, 1024)),
         bool(rng.integers(0, 2)))
        for _ in range(rng.integers(1, 4))
    ]
    recurrences = [
        (pick(["fadd.s", "fmul.s", "fmadd.s", "fnmsub.s", "add", "fmul+fadd"]),
         int(rng.integers(0, 4)), int(rng.integers(0, 4)), bool(rng.integers(0, 2)))
        for _ in range(rng.integers(0, 3))
    ]
    return {
        "step": int(rng.integers(1, 3)),
        "spread": bool(rng.integers(0, 2)),
        "trips": int(rng.integers(1, 25)),
        "branch": pick(["blt", "bltu", "bge", "bgeu", "bne"]),
        "loads": loads,
        "recurrences": recurrences,
        "misaligned": int(rng.integers(0, 4)) if rng.random() < 0.2 else -1,
        "cold": int(rng.integers(0, len(loads))) if rng.random() < 0.2 else -1,
        "carried": bool(rng.random() < 0.15),
    }


@pytest.mark.parametrize("seed", range(30))
def test_counted_loops_match_the_scalar_reference(seed):
    """Counted loops whose trips are summarised — affine loads of NaNs,
    infinities and denormals, float and integer recurrences, per-lane trip
    counts — end, raise and pause in the oracle's state: registers, PCs,
    memory, counters, access counts and the checkpoint bytes."""
    import pickle

    from repro.mem.memory import MemoryAccessError

    rng = np.random.default_rng(seed)
    program = _counted_loop_program(_loop_case(rng), seed)
    ref, ref_raised = _rollback_driver("funcsimref", program, max_instructions=20_000)
    vec, vec_raised = _rollback_driver("funcsim", program, max_instructions=20_000)
    assert ref_raised is vec_raised
    assert vec_raised in (None, MemoryAccessError)
    assert _full_state(vec) == _full_state(ref)
    total = ref.processor.cores[0].perf.get("instructions")
    for stop in rng.integers(1, total + 1, 2).tolist():
        pair = [_rollback_driver(spec, program, stop_after_instructions=stop)
                for spec in ("funcsimref", "funcsim")]
        assert pair[0][1] is pair[1][1], f"pause {stop}"
        assert _full_state(pair[1][0]) == _full_state(pair[0][0]), f"pause {stop}"
        snapshots = [pickle.dumps(driver.processor.snapshot()) for driver, _ in pair]
        assert snapshots[0] == snapshots[1], f"pause {stop}"


def test_counted_loops_keep_their_trip_summaries(funcsim_spy):
    """Where warps leave a counted loop at different trips, the ones still
    in it regroup and keep the window's budget: over the funcsim runs of
    the 30 programs above (whole, then paused twice), at most 48 summary
    calls decline for a ``limit`` under two trips — 145 when the lowest PC
    always went first and every call at split PCs got ``limit`` 1, 24
    measured — and at least 823 trips are summarised (893 measured)."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        program = _counted_loop_program(_loop_case(rng), seed)
        driver, _ = _rollback_driver("funcsim", program, max_instructions=20_000)
        total = driver.processor.cores[0].perf.get("instructions")
        for stop in rng.integers(1, total + 1, 2).tolist():
            _rollback_driver("funcsim", program, stop_after_instructions=stop)
    assert funcsim_spy.declines <= 48
    assert funcsim_spy.trips >= 823
