"""Graphics rendering: the software pipeline plus hardware texture sampling.

Two things happen here, mirroring sections 4.2 and 5.5 of the paper:

1. The OpenGL-ES-style context renders a textured, depth-tested scene
   entirely in software (host geometry, tile binning, rasterization,
   fragment ops) and writes it out as a PPM image.
2. The same texture is then sampled on the Vortex device itself, once with
   the hardware ``tex`` instruction and once with the pure-software sampling
   kernel, reproducing the Figure 20 comparison for one configuration.

Run with::

    python examples/graphics_rendering.py
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro import VortexConfig, VortexDevice
from repro.graphics import GraphicsContext, Matrix4, Vertex
from repro.graphics.fragment import FogState
from repro.kernels.texture import hardware_texture_kernel, software_texture_kernel
from repro.texture.formats import TexFilter


def checkerboard_texture(size: int = 32) -> np.ndarray:
    """An RGBA checkerboard with a colored gradient."""
    texture = np.zeros((size, size, 4), dtype=np.uint8)
    ys, xs = np.mgrid[0:size, 0:size]
    checker = ((xs // 4 + ys // 4) % 2).astype(np.uint8)
    texture[..., 0] = 255 * checker
    texture[..., 1] = (255 * xs / size).astype(np.uint8)
    texture[..., 2] = (255 * ys / size).astype(np.uint8)
    texture[..., 3] = 255
    return texture


def render_scene(width: int = 128, height: int = 128) -> GraphicsContext:
    """Render two overlapping textured triangles with depth testing and fog."""
    ctx = GraphicsContext(width, height, tile_size=16)
    ctx.set_mvp(Matrix4.perspective(math.radians(60.0), width / height, 0.1, 10.0)
                @ Matrix4.translation(0.0, 0.0, -2.5)
                @ Matrix4.rotation_y(0.4))
    ctx.clear(color=(20, 20, 40, 255))
    ctx.fragment_ops.fog = FogState(enabled=True, color=(0.08, 0.08, 0.16), start=0.6, end=1.0)
    ctx.bind_texture(checkerboard_texture(), filter_mode=TexFilter.BILINEAR)

    quad = [
        Vertex(position=(-1.0, -1.0, 0.0, 1.0), uv=(0.0, 1.0)),
        Vertex(position=(1.0, -1.0, 0.0, 1.0), uv=(1.0, 1.0)),
        Vertex(position=(1.0, 1.0, 0.0, 1.0), uv=(1.0, 0.0)),
        Vertex(position=(-1.0, -1.0, 0.0, 1.0), uv=(0.0, 1.0)),
        Vertex(position=(1.0, 1.0, 0.0, 1.0), uv=(1.0, 0.0)),
        Vertex(position=(-1.0, 1.0, 0.0, 1.0), uv=(0.0, 0.0)),
    ]
    occluder = [
        Vertex(position=(-0.4, -0.4, 0.5, 1.0), color=(1.0, 0.8, 0.2, 1.0)),
        Vertex(position=(0.6, -0.2, 0.5, 1.0), color=(1.0, 0.4, 0.2, 1.0)),
        Vertex(position=(0.1, 0.7, 0.5, 1.0), color=(1.0, 0.6, 0.1, 1.0)),
    ]
    ctx.draw(quad)
    ctx.bind_texture(None)
    ctx.draw(occluder)
    return ctx


def save_ppm(path: Path, image: np.ndarray) -> None:
    """Write an (H, W, 4) uint8 image as a binary PPM file."""
    height, width = image.shape[:2]
    with open(path, "wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        handle.write(image[..., :3].tobytes())


def device_texture_comparison() -> None:
    """Sample the texture on the device: hardware ``tex`` vs software kernel."""
    results = {}
    for label, factory in (("hardware", hardware_texture_kernel), ("software", software_texture_kernel)):
        device = VortexDevice(VortexConfig(), driver="simx")
        run = factory("bilinear").run(device, size=16 * 16)
        results[label] = run.report.cycles
        assert run.passed
    speedup = results["software"] / results["hardware"]
    print("device bilinear sampling (16x16 target):")
    print("  software kernel :", results["software"], "cycles")
    print("  tex instruction :", results["hardware"], "cycles")
    print(f"  acceleration    : {speedup:.2f}x")


def main() -> None:
    ctx = render_scene()
    output = Path(__file__).with_name("textured_scene.ppm")
    save_ppm(output, ctx.framebuffer.to_rgba_array())
    stats = ctx.tiles.bin_statistics()
    print("software renderer:")
    print("  image written to       :", output)
    print("  fragments written       :", ctx.fragment_ops.fragments_written)
    print("  depth-test kills        :", ctx.fragment_ops.depth_kills)
    print("  occupied screen tiles   :", int(stats["occupied"]), "of", int(stats["tiles"]))
    print()
    device_texture_comparison()


if __name__ == "__main__":
    main()
