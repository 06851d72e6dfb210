"""Graphics performance smoke: vectorized vs scalar render wall-clock.

Renders textured-triangle scenes on both graphics engines, interleaving
scalar and vector repetitions (best-of-N) so machine noise hits both sides
equally, checks that framebuffers and fragment counts are bit-identical,
and records everything into ``BENCH_graphics.json`` at the repository root.
(Simulator host speed is measured by ``bench/``, not here.)

Run with::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--reps N] [--graphics-out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.graphics.fragment import BlendMode
from repro.graphics.geometry import Matrix4, Vertex
from repro.graphics.pipeline import GraphicsContext
from repro.texture.formats import TexFilter, TexWrap

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
    parser.add_argument("--graphics-out", type=Path, default=root / "BENCH_graphics.json")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    run_graphics_benchmark(args.reps, args.graphics_out)


if __name__ == "__main__":
    main()
