"""Performance smoke benchmark: vectorized vs scalar wall-clock.

Runs ``vecadd`` and ``sgemm`` on both functional engines across a few
warp/thread geometries, a textured-triangle render on both graphics
engines, and a cycle-level (SIMX) workload on both timing engines,
interleaving scalar and vector repetitions (best-of-N) so machine noise
hits both sides equally, checks that the architectural/pixel/counter
results are bit-identical, and records everything into
``BENCH_engine.json``, ``BENCH_graphics.json`` and ``BENCH_timing.json``
at the repository root.

Run with::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--reps N] [--out PATH]
        [--graphics-out PATH] [--timing-out PATH] [--skip-engine]
        [--skip-graphics] [--skip-timing]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.graphics.fragment import BlendMode
from repro.graphics.geometry import Matrix4, Vertex
from repro.graphics.pipeline import GraphicsContext
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice
from repro.texture.formats import TexFilter, TexWrap

#: (kernel, problem size) pairs measured by the smoke benchmark.
WORKLOADS = (("vecadd", 8192), ("sgemm", 24 * 24))

#: Warp/thread geometries: the paper's 4W-4T baseline plus wider Table-3
#: style points where lane-parallel execution shines.
GEOMETRIES = ((4, 4), (4, 8), (8, 8))


def _architectural_state(device: VortexDevice) -> tuple[list[Any], Any]:
    cores = device.driver.processor.cores
    warps = [
        (warp.regs._int_regs.copy(), warp.regs._fp_regs.copy(), warp.instructions)
        for core in cores
        for warp in core.warps
    ]
    return warps, device.memory.page_snapshot()


def _run_once(
    driver: str, kernel: str, size: int, warps: int, threads: int
) -> tuple[float, Any, tuple[list[Any], Any]]:
    config = VortexConfig().with_warps_threads(warps, threads)
    device = VortexDevice(config, driver=driver)
    start = time.perf_counter()
    run = KERNELS[kernel]().run(device, size=size)
    wall = time.perf_counter() - start
    if not run.passed:
        raise AssertionError(f"{kernel} failed verification on {driver}")
    return wall, run.report, _architectural_state(device)


def measure(kernel: str, size: int, warps: int, threads: int, reps: int) -> dict[str, Any]:
    scalar_best = vector_best = float("inf")
    scalar_state = vector_state = None
    report = None
    for _ in range(reps):
        wall, _, scalar_state = _run_once("funcsim:engine=scalar", kernel, size, warps, threads)
        scalar_best = min(scalar_best, wall)
        wall, report, vector_state = _run_once("funcsim", kernel, size, warps, threads)
        vector_best = min(vector_best, wall)

    identical = scalar_state[1] == vector_state[1] and all(
        np.array_equal(s[0], v[0]) and np.array_equal(s[1], v[1]) and s[2] == v[2]
        for s, v in zip(scalar_state[0], vector_state[0])
    )
    return {
        "kernel": kernel,
        "size": size,
        "warps": warps,
        "threads": threads,
        "instructions": report.instructions,
        "scalar_seconds": round(scalar_best, 4),
        "vector_seconds": round(vector_best, 4),
        "speedup": round(scalar_best / vector_best, 2),
        "identical_architectural_state": bool(identical),
    }


# -- graphics: textured-triangle renders, scalar vs vector pipeline ---------------------

#: Render-target size, texture size and triangle count of the scenarios.
GRAPHICS_SIZE = 160
GRAPHICS_TEXTURE = 64
GRAPHICS_TRIANGLES = 24

#: Graphics render scenarios: (name, filter mode, generate mipmaps).  The
#: trilinear scenario exercises the derivative-LOD path end to end: the
#: rasterizer's per-quad uv derivatives select the mip level and the
#: sampler blends two levels of the generated chain per fragment.
GRAPHICS_SCENARIOS = (
    ("textured_triangles_alpha_blend_bilinear", TexFilter.BILINEAR, False),
    ("textured_triangles_trilinear_mipmapped", TexFilter.TRILINEAR, True),
)


def _graphics_scene() -> tuple[np.ndarray, list[Vertex]]:
    """Deterministic vertex stream + texture for the render scenarios."""
    rng = np.random.default_rng(41)
    texture = rng.integers(0, 256, size=(GRAPHICS_TEXTURE, GRAPHICS_TEXTURE, 4),
                           dtype=np.uint8)
    texture[..., 3] = 255
    vertices = []
    for index in range(GRAPHICS_TRIANGLES):
        z = (index / (GRAPHICS_TRIANGLES - 1)) - 0.5
        for _ in range(3):
            x, y = rng.uniform(-1.1, 1.1, size=2)
            color = tuple(rng.uniform(0.2, 1.0, size=3)) + (0.8,)
            uv = tuple(rng.uniform(-0.5, 1.5, size=2))
            vertices.append(Vertex(position=(x, y, z, 1.0), color=color, uv=uv))
    return texture, vertices


def _render_once(
    engine: str,
    texture: np.ndarray,
    vertices: list[Vertex],
    filter_mode: TexFilter,
    mipmaps: bool,
) -> tuple[float, GraphicsContext]:
    ctx = GraphicsContext(GRAPHICS_SIZE, GRAPHICS_SIZE, tile_size=16, engine=engine)
    ctx.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
    ctx.clear(color=(10, 10, 30, 255))
    ctx.fragment_ops.blend = BlendMode.ALPHA
    ctx.bind_texture(texture, filter_mode=filter_mode, wrap=TexWrap.REPEAT,
                     mipmaps=mipmaps)
    start = time.perf_counter()
    ctx.draw(vertices)
    wall = time.perf_counter() - start
    return wall, ctx


def measure_graphics_scenario(
    name: str, filter_mode: TexFilter, mipmaps: bool, reps: int
) -> dict[str, Any]:
    """Best-of-N textured-triangle render on both graphics engines."""
    texture, vertices = _graphics_scene()
    scalar_best = vector_best = float("inf")
    scalar_ctx = vector_ctx = None
    for _ in range(reps):
        wall, scalar_ctx = _render_once("scalar", texture, vertices, filter_mode, mipmaps)
        scalar_best = min(scalar_best, wall)
        wall, vector_ctx = _render_once("vector", texture, vertices, filter_mode, mipmaps)
        vector_best = min(vector_best, wall)

    identical = (
        np.array_equal(scalar_ctx.framebuffer.color, vector_ctx.framebuffer.color)
        and np.array_equal(
            scalar_ctx.framebuffer.depth.view(np.uint32),
            vector_ctx.framebuffer.depth.view(np.uint32),
        )
        and scalar_ctx.fragment_ops.fragments_written
        == vector_ctx.fragment_ops.fragments_written
    )
    fragments = scalar_ctx.fragment_ops.fragments_in
    return {
        "scenario": name,
        "framebuffer": [GRAPHICS_SIZE, GRAPHICS_SIZE],
        "texture": [GRAPHICS_TEXTURE, GRAPHICS_TEXTURE],
        "triangles": GRAPHICS_TRIANGLES,
        "filter": filter_mode.name.lower(),
        "mipmaps": bool(mipmaps),
        "fragments": fragments,
        "fragments_written": scalar_ctx.fragment_ops.fragments_written,
        "scalar_seconds": round(scalar_best, 4),
        "vector_seconds": round(vector_best, 4),
        "scalar_fragments_per_second": round(fragments / scalar_best, 1),
        "vector_fragments_per_second": round(fragments / vector_best, 1),
        "speedup": round(scalar_best / vector_best, 2),
        "identical_framebuffers": bool(identical),
    }


# -- timing (SIMX): cycle-level core, scalar vs vectorized execution engine ----------------

#: SIMX smoke scenarios: (name, kernel, size, warps, threads).  Wide-thread
#: configurations are where the whole-warp lane plans pay off; the timing
#: model (scheduler, scoreboard, caches, MSHRs) is identical on both sides.
TIMING_SCENARIOS = (
    ("simx_sfilter_4w32t", "sfilter", 24 * 24, 4, 32),
    ("simx_sgemm_4w32t", "sgemm", 20 * 20, 4, 32),
)


def _timing_config(warps: int, threads: int) -> VortexConfig:
    """A hit-friendly multi-bank/multi-port configuration.

    Wide virtual porting keeps the cache request retry traffic (which both
    engines pay identically) from drowning out the execute stage — the
    emulation-bound regime the vectorization targets.
    """
    return VortexConfig(
        dcache=CacheConfig(size=64 * 1024, num_banks=8, num_ports=8),
        memory=MemoryConfig(latency=10, bandwidth=8),
    ).with_warps_threads(warps, threads)


def _run_timing_once(
    driver: str, kernel: str, size: int, config: VortexConfig
) -> tuple[float, Any]:
    device = VortexDevice(config, driver=driver)
    start = time.perf_counter()
    run = KERNELS[kernel]().run(device, size=size)
    wall = time.perf_counter() - start
    if not run.passed:
        raise AssertionError(f"{kernel} failed verification on {driver}")
    return wall, run.report


def measure_timing_scenario(
    name: str, kernel: str, size: int, warps: int, threads: int, reps: int
) -> dict[str, Any]:
    """Best-of-N SIMX run on both timing engines + counter identity check."""
    config = _timing_config(warps, threads)
    scalar_best = vector_best = float("inf")
    scalar_report = vector_report = None
    for _ in range(reps):
        wall, scalar_report = _run_timing_once("simx:engine=scalar", kernel, size, config)
        scalar_best = min(scalar_best, wall)
        wall, vector_report = _run_timing_once("simx", kernel, size, config)
        vector_best = min(vector_best, wall)

    identical = (
        scalar_report.cycles == vector_report.cycles
        and scalar_report.instructions == vector_report.instructions
        and scalar_report.thread_instructions == vector_report.thread_instructions
        and scalar_report.counters == vector_report.counters
    )
    return {
        "scenario": name,
        "kernel": kernel,
        "size": size,
        "warps": warps,
        "threads": threads,
        "cycles": scalar_report.cycles,
        "instructions": scalar_report.instructions,
        "ipc": round(scalar_report.ipc, 4),
        "scalar_seconds": round(scalar_best, 4),
        "vector_seconds": round(vector_best, 4),
        "scalar_cycles_per_second": round(scalar_report.cycles / scalar_best, 1),
        "vector_cycles_per_second": round(vector_report.cycles / vector_best, 1),
        "speedup": round(scalar_best / vector_best, 2),
        "identical_counters": bool(identical),
    }


# -- scheduler policies: the wavefront-scheduling design-space axis -----------------------

#: Scenario swept across every scheduler policy: (kernel, size, warps, threads).
#: Stall-heavy enough (one dcache port, long memory latency) that the
#: policies actually diverge.
POLICY_SCENARIO = ("sgemm", 24 * 24, 8, 4)


def run_scheduler_policy_sweep() -> list[dict[str, Any]]:
    """Cycle counts of the policy axis (deterministic — safe to commit).

    Runs the policy scenario on the vectorized timing engine under every
    :data:`~repro.common.config.SCHEDULER_POLICIES` entry and reports
    cycles/IPC per policy.  The schedules must be pairwise distinct —
    otherwise the axis sweeps nothing.
    """
    from repro.common.config import SCHEDULER_POLICIES

    kernel, size, warps, threads = POLICY_SCENARIO
    base = VortexConfig(
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=100, bandwidth=1),
    ).with_warps_threads(warps, threads)
    rows = []
    for policy in SCHEDULER_POLICIES:
        device = VortexDevice(base.with_scheduler_policy(policy), driver="simx")
        run = KERNELS[kernel]().run(device, size=size)
        if not run.passed:
            raise AssertionError(f"{kernel} failed verification under policy {policy}")
        rows.append(
            {
                "policy": policy,
                "kernel": kernel,
                "size": size,
                "warps": warps,
                "threads": threads,
                "cycles": run.report.cycles,
                "ipc": round(run.report.ipc, 4),
            }
        )
        print(
            f"policy {policy:20s} cycles={run.report.cycles:7d} "
            f"ipc={run.report.ipc:6.3f}"
        )
    cycles = [row["cycles"] for row in rows]
    if len(set(cycles)) != len(cycles):
        raise SystemExit(f"scheduler policies produced coinciding schedules: {rows}")
    return rows


def run_timing_benchmark(reps: int, out_path: Path) -> None:
    results = []
    for name, kernel, size, warps, threads in TIMING_SCENARIOS:
        row = measure_timing_scenario(name, kernel, size, warps, threads, reps)
        results.append(row)
        print(
            f"timing {row['scenario']:24s} cycles={row['cycles']:7d} "
            f"scalar={row['scalar_seconds']:7.3f}s vector={row['vector_seconds']:7.3f}s "
            f"({row['scalar_cycles_per_second']:,.0f} vs "
            f"{row['vector_cycles_per_second']:,.0f} cycles/s) "
            f"speedup={row['speedup']:5.2f}x identical={row['identical_counters']}"
        )
    payload = {
        "benchmark": f"vectorized SIMX timing core vs scalar reference (best-of-{reps})",
        "generated_by": "benchmarks/perf_smoke.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": results,
        "scheduler_policy_sweep": run_scheduler_policy_sweep(),
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    failed = [r["scenario"] for r in results if not r["identical_counters"]]
    if failed:
        raise SystemExit(f"timing engines produced different counters in: {failed}")


def run_engine_benchmark(reps: int, out_path: Path) -> None:
    results = []
    for kernel, size in WORKLOADS:
        for warps, threads in GEOMETRIES:
            row = measure(kernel, size, warps, threads, reps)
            results.append(row)
            print(
                f"{kernel:8s} size={size:6d} {warps}W-{threads}T "
                f"scalar={row['scalar_seconds']:7.3f}s vector={row['vector_seconds']:7.3f}s "
                f"speedup={row['speedup']:5.2f}x identical={row['identical_architectural_state']}"
            )

    baseline = [r for r in results if (r["warps"], r["threads"]) == (4, 4)]
    payload = {
        "benchmark": f"funcsim vectorized engine vs scalar reference (best-of-{reps})",
        "generated_by": "benchmarks/perf_smoke.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": results,
        "baseline_4w4t_speedups": {r["kernel"]: r["speedup"] for r in baseline},
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out_path}")

    failed = [r for r in results if not r["identical_architectural_state"]]
    if failed:
        raise SystemExit(f"architectural mismatch in: {[r['kernel'] for r in failed]}")


def run_graphics_benchmark(reps: int, out_path: Path) -> None:
    results = []
    for name, filter_mode, mipmaps in GRAPHICS_SCENARIOS:
        row = measure_graphics_scenario(name, filter_mode, mipmaps, reps)
        results.append(row)
        print(
            f"graphics {row['scenario']:40s} {row['fragments']} fragments "
            f"scalar={row['scalar_seconds']:7.3f}s vector={row['vector_seconds']:7.3f}s "
            f"({row['scalar_fragments_per_second']:,.0f} vs "
            f"{row['vector_fragments_per_second']:,.0f} frags/s) "
            f"speedup={row['speedup']:5.2f}x identical={row['identical_framebuffers']}"
        )
    payload = {
        "benchmark": f"vectorized graphics pipeline vs scalar reference (best-of-{reps})",
        "generated_by": "benchmarks/perf_smoke.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "results": results,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    failed = [r["scenario"] for r in results if not r["identical_framebuffers"]]
    if failed:
        raise SystemExit(f"graphics engines produced different framebuffers in: {failed}")


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=5, help="repetitions per engine (best-of)")
    parser.add_argument("--out", type=Path, default=root / "BENCH_engine.json")
    parser.add_argument("--graphics-out", type=Path, default=root / "BENCH_graphics.json")
    parser.add_argument("--timing-out", type=Path, default=root / "BENCH_timing.json")
    parser.add_argument("--skip-engine", action="store_true",
                        help="skip the funcsim engine workloads")
    parser.add_argument("--skip-graphics", action="store_true",
                        help="skip the graphics render scenario")
    parser.add_argument("--skip-timing", action="store_true",
                        help="skip the cycle-level (SIMX) scenario")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    if not args.skip_engine:
        run_engine_benchmark(args.reps, args.out)
    if not args.skip_graphics:
        run_graphics_benchmark(args.reps, args.graphics_out)
    if not args.skip_timing:
        run_timing_benchmark(args.reps, args.timing_out)


if __name__ == "__main__":
    main()
