"""GPGPU ISA taxonomy (paper Table 1).

The paper's first contribution is a taxonomy of mainstream GPU ISAs used to
derive the minimal SIMT subset Vortex adds to RISC-V.  This module encodes
that comparison as structured data so the Table 1 benchmark can regenerate
the published table and so tests can assert the properties the paper calls
out (e.g. every surveyed ISA provides barriers and texture sampling, and
Vortex covers each category with exactly six added instructions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import VORTEX_EXTENSION


@dataclass(frozen=True)
class IsaProfile:
    """One row of Table 1."""

    name: str
    memory_model: tuple[str, ...]
    threading_model: tuple[str, ...]
    register_file: tuple[str, ...]
    thread_control: tuple[str, ...]
    synchronization: tuple[str, ...]
    flow_control: tuple[str, ...]
    alu_operations: tuple[str, ...]
    memory_operations: tuple[str, ...]
    gpu_operations: tuple[str, ...]


TABLE1: list[IsaProfile] = [
    IsaProfile(
        name="RDNA",
        memory_model=("GDS", "LDS", "Constants", "Global"),
        threading_model=("Workgroup", "Wavefront", "32/64 threads"),
        register_file=("Vector/Scalar", "256 VGPRs", "106 SGPRs"),
        thread_control=("end threads", "thread mask"),
        synchronization=("barrier", "wait_cnt", "data dep"),
        flow_control=("branch", "thread mask"),
        alu_operations=("arithmetic", "conditional", "bitwise"),
        memory_operations=("load", "store", "prefetch"),
        gpu_operations=("interpolate", "tex-sampler"),
    ),
    IsaProfile(
        name="GCN",
        memory_model=("GDS", "LDS", "Constants", "Global"),
        threading_model=("Compute unit", "Wavefront", "64 threads"),
        register_file=("Vector/Scalar", "256 VGPRs", "102 SGPRs"),
        thread_control=("end threads", "thread mask"),
        synchronization=("barrier", "wait_cnt", "data dep"),
        flow_control=("branch", "thread mask", "split/join"),
        alu_operations=("arithmetic", "conditional", "bitwise"),
        memory_operations=("load", "store", "prefetch"),
        gpu_operations=("interpolate", "tex-sampler"),
    ),
    IsaProfile(
        name="PTX",
        memory_model=("Shared", "Texture", "Constants", "Global"),
        threading_model=("Grid/CTA", "Warp", "32 threads"),
        register_file=("Scalar",),
        thread_control=("predicate",),
        synchronization=("barrier", "membar"),
        flow_control=("branch", "predicate"),
        alu_operations=("arithmetic", "conditional", "bitwise"),
        memory_operations=("load", "store", "prefetch"),
        gpu_operations=("tex-sampler", "tex-load", "tex-query"),
    ),
    IsaProfile(
        name="GEM",
        memory_model=("SW Managed",),
        threading_model=("Root thread", "Child thread"),
        register_file=("256-bit Vec", "128 GRFs", "predicate"),
        thread_control=("send msg",),
        synchronization=("Wait", "Fence"),
        flow_control=("branch", "SPF Regs", "split/join"),
        alu_operations=("arithmetic", "conditional", "bitwise"),
        memory_operations=("load", "store"),
        gpu_operations=("interpolate", "tex-sampler"),
    ),
    IsaProfile(
        name="PowerVR",
        memory_model=("Global", "Common St", "Unified St"),
        threading_model=("USC", "32 threads"),
        register_file=("Vector", "128-bit", "predicate"),
        thread_control=("fence",),
        synchronization=("fence",),
        flow_control=("branch", "predicate"),
        alu_operations=("arithmetic", "conditional", "bitwise"),
        memory_operations=("load", "store"),
        gpu_operations=("tex-sampler", "iteration", "alpha/depth"),
    ),
    IsaProfile(
        name="Vortex",
        memory_model=("Shared", "Global"),
        threading_model=("Compute Unit", "Wavefront"),
        register_file=("Scalar", "32-bit"),
        thread_control=("thread mask",),
        synchronization=("Barrier", "Flush"),
        flow_control=("Split/Join",),
        alu_operations=("arithmetic", "conditional", "bitwise"),
        memory_operations=("load", "store"),
        gpu_operations=("tex-sampler",),
    ),
]

#: Table 2: the Vortex extension instructions and their one-line descriptions.
TABLE2: dict[str, str] = {
    "wspawn %numW, %PC": "Wavefronts activation",
    "tmc %numT": "Thread mask control",
    "split %pred": "Control flow divergence",
    "join": "Control flow reconvergence",
    "bar %barID, %numW": "Wavefronts barrier",
    "tex %dest, %u, %v, %lod": "Texture sampling/filtering",
}


def category_coverage() -> dict[str, dict[str, bool]]:
    """Return, per ISA, whether each SIMT capability category is covered."""
    coverage = {}
    for profile in TABLE1:
        coverage[profile.name] = {
            "threading": bool(profile.threading_model),
            "thread_control": bool(profile.thread_control),
            "synchronization": bool(profile.synchronization),
            "flow_control": bool(profile.flow_control),
            "texture": any("tex" in op for op in profile.gpu_operations),
        }
    return coverage


def extension_summary() -> dict[str, str]:
    """Map each Vortex extension instruction to the capability it provides."""
    capability_by_instr = {
        "wspawn": "wavefront activation",
        "tmc": "thread control",
        "split": "control divergence",
        "join": "control reconvergence",
        "bar": "synchronization",
        "tex": "texture filtering",
    }
    assert set(capability_by_instr) == set(VORTEX_EXTENSION)
    return capability_by_instr
