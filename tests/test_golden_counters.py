"""Golden SIMX counters: the last word of the per-lane, ticked timing path.

``tests/golden/simx_counters.json`` was recorded at commit 4984d30 — the
last one that still had the per-lane request path and a ticked main loop —
by running every scenario below through
``"simx:fastforward=off,requests=perlane"``.  The one remaining timing path
(batched per-bank requests + event-driven fast-forward) must reproduce each
cycle count and every performance counter exactly.

The scenarios are the regimes where the two paths differed most in code:
the port-limited retry wall (loads and a store-refusal storm), multi-level
fills, global barriers across cores, and a kernel whose lanes interleave
scratchpad and global addresses inside one warp instruction — the only
end-to-end coverage of the mixed-destination segment splitting in
``TimingCore._send_batch_segments``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cache.sharedmem import SHARED_MEM_BASE
from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.isa.builder import ProgramBuilder
from repro.isa.registers import Reg
from repro.kernels import KERNELS
from repro.kernels.base import Kernel
from repro.runtime.device import VortexDevice

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "simx_counters.json").read_text(encoding="utf-8")
)["scenarios"]


class MixedSharedGlobalKernel(Kernel):
    """Every load/store instruction mixes scratchpad and global lanes.

    Task ``i`` owns word ``i`` of a slot array; the slot lives in the global
    buffer or, when the selector bit of ``i`` is set, at the same offset in
    core 0's shared-memory window.  Two selector bits (``i & 1`` and
    ``i & 2``) give destination runs of length one and two inside a warp.
    Each task stores to both of its slots, loads both back and writes their
    sum to a global output array.

    Argument block: ``num_tasks, slots, window - slots, out``.
    """

    name = "mixed_smem_global"
    category = "memory"

    def emit_body(self, asm: ProgramBuilder) -> None:
        asm.slli(Reg.t0, Reg.a0, 2)
        asm.lw(Reg.t1, 4, Reg.a1)
        asm.add(Reg.t1, Reg.t1, Reg.t0)  # &slots[i]
        asm.lw(Reg.t2, 8, Reg.a1)  # window - slots
        # t3: slot picked by bit 0, t4: slot picked by bit 1.
        asm.andi(Reg.t5, Reg.a0, 1)
        asm.mul(Reg.t5, Reg.t5, Reg.t2)
        asm.add(Reg.t3, Reg.t1, Reg.t5)
        asm.srli(Reg.t5, Reg.a0, 1)
        asm.andi(Reg.t5, Reg.t5, 1)
        asm.mul(Reg.t5, Reg.t5, Reg.t2)
        asm.add(Reg.t4, Reg.t1, Reg.t5)
        # Mixed stores (the second overwrites the first where the slots coincide).
        asm.addi(Reg.t5, Reg.a0, 1)
        asm.sw(Reg.t5, 0, Reg.t3)
        asm.addi(Reg.t5, Reg.a0, 7)
        asm.sw(Reg.t5, 0, Reg.t4)
        # Mixed loads.
        asm.lw(Reg.t5, 0, Reg.t3)
        asm.lw(Reg.t6, 0, Reg.t4)
        asm.add(Reg.t5, Reg.t5, Reg.t6)
        asm.lw(Reg.t1, 12, Reg.a1)
        asm.add(Reg.t1, Reg.t1, Reg.t0)
        asm.sw(Reg.t5, 0, Reg.t1)
        asm.ret()

    def setup(self, device: VortexDevice, size: int) -> dict:
        slots = device.alloc_array(np.zeros(size, dtype=np.uint32))
        out = device.alloc_array(np.zeros(size, dtype=np.uint32))
        delta = (SHARED_MEM_BASE - slots.address) & 0xFFFF_FFFF
        self.write_args(device, [size, slots.address, delta, out.address])
        return {"out": out, "size": size}

    def verify(self, device: VortexDevice, context: dict) -> bool:
        tasks = np.arange(context["size"], dtype=np.uint32)
        same_slot = (tasks & 1) == ((tasks >> 1) & 1)
        expected = np.where(same_slot, 2 * (tasks + 7), 2 * tasks + 8)
        return bool(np.array_equal(context["out"].read(np.uint32, context["size"]), expected))


def _retry_wall() -> VortexConfig:
    """8W-32T against one D$ port and a slow, narrow DRAM (``bench``'s memory-wall shape)."""
    return VortexConfig(
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=800, bandwidth=4),
    ).with_warps_threads(8, 32)


def _small(num_cores: int = 1, warps: int = 4, threads: int = 4) -> VortexConfig:
    return VortexConfig(
        num_cores=num_cores,
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=100, bandwidth=1),
    ).with_warps_threads(warps, threads)


#: name -> (kernel factory, problem size, config)
SCENARIOS = {
    "sgemm_1p32t": (KERNELS["sgemm"], 16 * 16, _retry_wall()),
    "sfilter_1p32t": (KERNELS["sfilter"], 16 * 16, _retry_wall()),
    "saxpy_1p32t_store_storm": (KERNELS["saxpy"], 512, _retry_wall()),
    "sgemm_1p32t_l2l3": (
        KERNELS["sgemm"],
        16 * 16,
        _retry_wall().with_cache_hierarchy(enable_l2=True, enable_l3=True),
    ),
    "sgemm_2core_barriers": (KERNELS["sgemm"], 8 * 8, _small(num_cores=2)),
    # 32 lanes take the numpy request precompute, 4 lanes the plain loop.
    "mixed_smem_global_4w32t": (MixedSharedGlobalKernel, 256, _small(threads=32)),
    "mixed_smem_global_4w4t": (MixedSharedGlobalKernel, 64, _small()),
}


def run_scenario(name: str) -> dict:
    """Run one scenario; the report payload (minus wall-clock) plus the
    scratchpad counters, which ``ExecutionReport.counters`` does not carry."""
    kernel_factory, size, config = SCENARIOS[name]
    device = VortexDevice(config, driver="simx")
    run = kernel_factory().run(device, size=size)
    assert run.passed, name
    payload = run.report.to_payload()
    del payload["wall_seconds"]
    payload["smem"] = _smem_counters(device.driver.processor)
    return payload


def _smem_counters(processor) -> dict:
    return {f"smem{core.core_id}": core.smem.perf.as_dict() for core in processor.cores}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_default_driver_reproduces_golden_counters(name):
    assert run_scenario(name) == GOLDEN[name]


def test_mixed_kernel_golden_drives_scratchpad_and_dcache():
    """The mixed scenario's pinned counters must show both destinations in use."""
    payload = GOLDEN["mixed_smem_global_4w32t"]
    smem = payload["smem"]["smem0"]
    dcache = payload["counters"]["dcache0"]
    assert smem["reads"] > 0 and smem["writes"] > 0 and smem["bank_conflicts"] > 0
    assert dcache["read_hits"] + dcache["read_misses"] > 0
    assert dcache["write_hits"] + dcache["write_misses"] > 0


# -- relaunch: warm caches, a later window of the one device clock ---------------------------


@pytest.mark.parametrize(
    "kernel_factory,size,config",
    [
        # fast-forward through the write refusal horizon
        pytest.param(*SCENARIOS["saxpy_1p32t_store_storm"], id="store_storm"),
        # scratchpad response cycles
        pytest.param(*SCENARIOS["mixed_smem_global_4w32t"], id="smem"),
        # due buckets at three cache levels
        pytest.param(
            KERNELS["sgemm"], 8 * 8, _small().with_cache_hierarchy(enable_l2=True, enable_l3=True),
            id="l2l3",
        ),
    ],
)
def test_relaunch_run_equals_tick_loop(run_ticked, kernel_factory, size, config):
    """A second and third launch (cold program, warm caches) start at a
    non-zero reading of the device clock, so every bound the fast-forward
    compares is far from the launch-relative cycle count.  ``run()`` must
    still equal the tick loop on a twin device in cycles and every counter."""
    fast = VortexDevice(config, driver="simx")
    ticked = VortexDevice(config, driver="simx")
    for device in (fast, ticked):
        assert kernel_factory().run(device, size=size).passed
    processor = fast.driver.processor
    skips = []
    skip_idle = processor._skip_idle
    processor._skip_idle = lambda cycles: (skips.append(cycles), skip_idle(cycles))
    for _launch in range(2):
        run = kernel_factory().run(fast, size=size)
        assert run.passed
        reference = run_ticked(kernel_factory, size, device=ticked).driver.processor
        assert run.report.cycles == reference.cycle
        assert run.report.counters == reference.counters()
        assert _smem_counters(processor) == _smem_counters(reference)
    assert skips, "the relaunches should have fast-forwarded some window"
