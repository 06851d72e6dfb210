"""The OpenGL-ES-style rendering context.

``GraphicsContext`` ties the stages together the way the Vortex graphics
API does (paper section 5.5): geometry processing on the host, tile
binning, per-tile rasterization, an optional texture stage routed through
the same :class:`~repro.texture.sampler.TextureSampler` model the hardware
texture unit uses, and the fragment pipeline writing into a
:class:`~repro.graphics.framebuffer.Framebuffer`.
"""

from __future__ import annotations

from enum import Enum
from collections.abc import Sequence

import numpy as np

from repro.graphics.fragment import FragmentOps
from repro.graphics.framebuffer import Framebuffer, unpack_colors
from repro.graphics.geometry import GeometryStage, Vertex
from repro.graphics.raster import FragmentBatch, Rasterizer
from repro.graphics.tiles import TileGrid
from repro.isa.csr import NUM_TEX_LODS
from repro.mem.memory import MainMemory
from repro.texture.address import derivative_lod
from repro.texture.formats import TexFilter, TexFormat, TexWrap
from repro.texture.sampler import TextureSampler, TextureState


class PrimitiveType(Enum):
    """Primitive topologies supported by the rasterizer."""

    POINTS = "points"
    LINES = "lines"
    TRIANGLES = "triangles"


def _box_downsample(image: np.ndarray) -> np.ndarray:
    """Halve an (H, W, 4) uint8 image with a rounding 2x2 box filter.

    Once a dimension reaches 1 the filter degenerates to averaging pairs
    along the other axis, so the chain walks all the way down to 1x1.
    """
    height, width = image.shape[:2]
    wide = image.astype(np.uint16)
    if height > 1 and width > 1:
        block = wide[0::2, 0::2] + wide[0::2, 1::2] + wide[1::2, 0::2] + wide[1::2, 1::2]
        return ((block + 2) >> 2).astype(np.uint8)
    if width > 1:
        pair = wide[:, 0::2] + wide[:, 1::2]
    else:
        pair = wide[0::2, :] + wide[1::2, :]
    return ((pair + 1) >> 1).astype(np.uint8)


class TextureBinding:
    """A bound 2D texture, stored through the same memory + sampler path the
    hardware texture unit uses so host rendering and device rendering share
    one filtering implementation."""

    def __init__(self, image: np.ndarray, filter_mode: TexFilter = TexFilter.BILINEAR,
                 wrap: TexWrap = TexWrap.REPEAT):
        if image.ndim != 3 or image.shape[2] != 4 or image.dtype != np.uint8:
            raise ValueError("textures must be (H, W, 4) uint8 arrays")
        height, width = image.shape[:2]
        if width & (width - 1) or height & (height - 1):
            raise ValueError("texture dimensions must be powers of two")
        self.width = width
        self.height = height
        self._memory = MainMemory()
        self._memory.write_bytes(0, image.tobytes())
        self.state = TextureState(
            address=0,
            width_log2=width.bit_length() - 1,
            height_log2=height.bit_length() - 1,
            fmt=TexFormat.RGBA8,
            wrap=wrap,
            filter_mode=filter_mode,
            mip_offsets=[0],
        )
        self._sampler = TextureSampler(self._memory)

    @property
    def mip_count(self) -> int:
        """Number of addressable mip levels (1 until mipmaps are generated)."""
        return len(self.state.mip_offsets)

    def generate_mipmaps(self) -> int:
        """Build the mip chain with a 2x2 box filter and program the offsets.

        Levels are laid out back to back after the base image in the
        binding's memory (exactly how a kernel would place them before
        writing the MIPOFF CSRs), halving each dimension down to 1x1 —
        capped at the :data:`~repro.isa.csr.NUM_TEX_LODS` levels the CSR
        block can describe.  Returns the number of levels.
        """
        base = np.frombuffer(
            self._memory.read_bytes(0, self.height * self.width * 4), dtype=np.uint8
        ).reshape(self.height, self.width, 4)
        levels = [base]
        while levels[-1].shape[:2] != (1, 1) and len(levels) < NUM_TEX_LODS:
            levels.append(_box_downsample(levels[-1]))
        offsets = []
        offset = 0
        for level in levels:
            offsets.append(offset)
            offset += level.nbytes
        self._memory.write_bytes(
            levels[0].nbytes, b"".join(level.tobytes() for level in levels[1:])
        )
        self.state.mip_offsets = offsets
        return len(levels)

    def lod_many(self, duv_dx: np.ndarray, duv_dy: np.ndarray) -> np.ndarray:
        """Per-fragment level of detail from screen-space uv derivatives."""
        return derivative_lod(duv_dx, duv_dy, self.width, self.height)

    def sample_many(self, us: np.ndarray, vs: np.ndarray, lods=0.0) -> np.ndarray:
        """Sample the texture at each (u, v, lod): normalized ``(N, 4)`` float64 RGBA rows."""
        words = self._sampler.sample_many(self.state, us, vs, lods)
        return unpack_colors(words) / 255.0


class GraphicsContext:
    """A minimal OpenGL-ES-style immediate-mode context.

    Each (tile, triangle) pair is rasterized, shaded and run through the
    fragment tests as one numpy batch; each line or point primitive is one
    batch as well.  ``perspective_depth`` switches the rasterizer's depth
    interpolation to the perspective-correct 1/w weighting (color and uv
    always use it).
    """

    def __init__(self, width: int, height: int, tile_size: int = 16,
                 perspective_depth: bool = False):
        self.perspective_depth = perspective_depth
        self.framebuffer = Framebuffer(width, height)
        self.geometry = GeometryStage(width, height)
        self.tiles = TileGrid(width, height, tile_size)
        self.rasterizer = Rasterizer(width, height, perspective_depth=perspective_depth)
        self.fragment_ops = FragmentOps()
        self.texture: TextureBinding | None = None
        self.draw_calls = 0

    # -- state -----------------------------------------------------------------------

    def set_mvp(self, matrix: np.ndarray) -> None:
        """Set the model-view-projection matrix used by the vertex stage."""
        self.geometry.set_mvp(matrix)

    def bind_texture(self, image: np.ndarray | None,
                     filter_mode: TexFilter = TexFilter.BILINEAR,
                     wrap: TexWrap = TexWrap.REPEAT,
                     mipmaps: bool = False) -> None:
        """Bind (or unbind with ``None``) the fragment texture.

        With ``mipmaps`` the binding generates its box-filtered mip chain
        and fragments select their level of detail from the rasterizer's
        per-quad uv derivatives (trilinear filtering blends the two
        adjacent levels; point/bilinear use the truncated level).
        """
        self.texture = None if image is None else TextureBinding(image, filter_mode, wrap)
        if self.texture is not None and mipmaps:
            self.texture.generate_mipmaps()

    def clear(self, color=(0, 0, 0, 255), depth: float = 1.0) -> None:
        self.framebuffer.clear(color=color, depth=depth)

    # -- drawing ------------------------------------------------------------------------

    def draw(self, vertices: Sequence[Vertex],
             primitive: PrimitiveType = PrimitiveType.TRIANGLES) -> int:
        """Draw a vertex stream; returns the number of fragments written."""
        self.draw_calls += 1
        written_before = self.fragment_ops.fragments_written
        if primitive is PrimitiveType.TRIANGLES:
            self._draw_triangles(vertices)
        elif primitive is PrimitiveType.LINES:
            self._draw_lines(vertices)
        else:
            self._draw_points(vertices)
        return self.fragment_ops.fragments_written - written_before

    @property
    def _needs_derivatives(self) -> bool:
        """Derivative LOD is live once the bound texture has a mip chain."""
        return self.texture is not None and self.texture.mip_count > 1

    def _shade_many(self, batch) -> np.ndarray:
        """Run the (fixed-function) fragment shader: vertex color x texture."""
        if self.texture is None:
            return batch.color
        lods = 0.0
        if self.texture.mip_count > 1 and batch.duv_dx is not None:
            lods = self.texture.lod_many(batch.duv_dx, batch.duv_dy)
        texels = self.texture.sample_many(batch.uv[:, 0], batch.uv[:, 1], lods)
        return batch.color * texels

    def _draw_triangles(self, vertices: Sequence[Vertex]) -> None:
        triangles = self.geometry.assemble_triangles(vertices)
        # Tile binning (tile-based rendering, Larrabee-style).
        self.tiles.clear()
        for triangle_id, tri in enumerate(triangles):
            bbox = self.rasterizer.triangle_bbox(tri)
            self.tiles.bin_bbox(triangle_id, *bbox)
        derivatives = self._needs_derivatives
        for tile in self.tiles.occupied_tiles():
            for triangle_id in self.tiles.triangles_in(tile):
                self._draw_triangle(*triangles[triangle_id], tile, derivatives)

    def _draw_triangle(self, v0, v1, v2, tile, derivatives: bool) -> None:
        """Rasterize, shade and fragment-process one triangle within one tile."""
        batch = self.rasterizer.rasterize_triangle_batch(
            v0, v1, v2, tile=tile, derivatives=derivatives
        )
        if batch is not None:
            self.fragment_ops.process_many(self.framebuffer, batch, self._shade_many(batch))

    def _process_primitive_fragments(self, fragments) -> None:
        """Run one line or point primitive's fragments as one batch.

        One DDA walk or point never visits the same pixel twice, so the
        unique-pixel requirement of :meth:`FragmentOps.process_many` holds;
        distinct primitives still execute in order so overlaps between them
        blend sequentially.
        """
        fragments = list(fragments)
        if fragments:
            batch = FragmentBatch.from_fragments(fragments)
            self.fragment_ops.process_many(self.framebuffer, batch, self._shade_many(batch))

    def _draw_lines(self, vertices: Sequence[Vertex]) -> None:
        screen = self.geometry.process_vertices(vertices)
        for index in range(0, len(screen) - 1, 2):
            v0, v1 = screen[index], screen[index + 1]
            if v0 is None or v1 is None:
                continue
            self._process_primitive_fragments(self.rasterizer.rasterize_line(v0, v1))

    def _draw_points(self, vertices: Sequence[Vertex]) -> None:
        for screen in self.geometry.process_vertices(vertices):
            if screen is None:
                continue
            self._process_primitive_fragments(self.rasterizer.rasterize_point(screen))
