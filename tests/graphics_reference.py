"""The per-fragment reference renderer, for tests only.

``RefGraphicsContext`` is a :class:`~repro.graphics.pipeline.GraphicsContext`
whose triangle and primitive draw methods run one fragment at a time: a
Python walk over each tile's pixels, one ``TextureSampler.sample`` per
fragment, and scalar alpha/stencil/depth tests, fog and blending.  It shares
binning, geometry, texture setup and the rasterizer helpers (``_edge``,
``_edge_accepts_zero``, ``_quad_derivatives``) with the batched context, and
``tests/test_graphics_differential.py`` holds the two to identical color,
depth bits, stencil and statistics.  It is the same subclass seam as
``RefTimingCore`` in ``tests/conftest.py``.
"""

from __future__ import annotations

import numpy as np

from repro.graphics.fragment import BlendMode, CompareFunc
from repro.graphics.framebuffer import unpack_color
from repro.graphics.pipeline import GraphicsContext
from repro.graphics.raster import Fragment, _edge, _edge_accepts_zero, _quad_derivatives


def compare(func: CompareFunc, value: float, reference: float) -> bool:
    """One depth/alpha/stencil comparison."""
    if func is CompareFunc.NEVER:
        return False
    if func is CompareFunc.LESS:
        return value < reference
    if func is CompareFunc.LEQUAL:
        return value <= reference
    if func is CompareFunc.EQUAL:
        return value == reference
    if func is CompareFunc.GREATER:
        return value > reference
    if func is CompareFunc.GEQUAL:
        return value >= reference
    if func is CompareFunc.NOTEQUAL:
        return value != reference
    return True


class RefGraphicsContext(GraphicsContext):
    """:class:`GraphicsContext` rendering one fragment at a time."""

    def _draw_triangle(self, v0, v1, v2, tile, derivatives: bool) -> None:
        for fragment in self.rasterize_triangle(v0, v1, v2, tile, derivatives):
            self.process(fragment, self.shade(fragment))

    def _process_primitive_fragments(self, fragments) -> None:
        for fragment in fragments:
            self.process(fragment, self.shade(fragment))

    # -- rasterization ----------------------------------------------------------------

    def rasterize_triangle(self, v0, v1, v2, tile, derivatives: bool):
        """Yield the fragments a triangle covers within ``tile``."""
        rasterizer = self.rasterizer
        area = _edge(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
        if abs(area) < 1e-9:
            rasterizer.triangles_culled += 1
            return
        # Consistent winding: flip so the area is positive.
        if area < 0:
            v1, v2 = v2, v1
            area = -area

        min_x = max(int(min(v0.x, v1.x, v2.x)), tile.x0)
        max_x = min(int(max(v0.x, v1.x, v2.x)) + 1, tile.x1 - 1)
        min_y = max(int(min(v0.y, v1.y, v2.y)), tile.y0)
        max_y = min(int(max(v0.y, v1.y, v2.y)) + 1, tile.y1 - 1)

        inv_w = (1.0 / v0.w, 1.0 / v1.w, 1.0 / v2.w)
        accept0 = _edge_accepts_zero(v1.x, v1.y, v2.x, v2.y)
        accept1 = _edge_accepts_zero(v2.x, v2.y, v0.x, v0.y)
        accept2 = _edge_accepts_zero(v0.x, v0.y, v1.x, v1.y)
        for y in range(min_y, max_y + 1):
            for x in range(min_x, max_x + 1):
                px, py = x + 0.5, y + 0.5
                w0 = _edge(v1.x, v1.y, v2.x, v2.y, px, py)
                w1 = _edge(v2.x, v2.y, v0.x, v0.y, px, py)
                w2 = _edge(v0.x, v0.y, v1.x, v1.y, px, py)
                if w0 < 0 or w1 < 0 or w2 < 0:
                    continue
                if (
                    (w0 == 0 and not accept0)
                    or (w1 == 0 and not accept1)
                    or (w2 == 0 and not accept2)
                ):
                    continue
                b0, b1, b2 = w0 / area, w1 / area, w2 / area
                # Perspective-correct interpolation via 1/w weighting.
                denom = b0 * inv_w[0] + b1 * inv_w[1] + b2 * inv_w[2]
                if denom <= 0:
                    continue
                p0 = b0 * inv_w[0] / denom
                p1 = b1 * inv_w[1] / denom
                p2 = b2 * inv_w[2] / denom
                if rasterizer.perspective_depth:
                    depth = p0 * v0.z + p1 * v1.z + p2 * v2.z
                else:
                    depth = b0 * v0.z + b1 * v1.z + b2 * v2.z
                color = tuple(
                    p0 * v0.color[c] + p1 * v1.color[c] + p2 * v2.color[c] for c in range(4)
                )
                uv = (
                    p0 * v0.uv[0] + p1 * v1.uv[0] + p2 * v2.uv[0],
                    p0 * v0.uv[1] + p1 * v1.uv[1] + p2 * v2.uv[1],
                )
                duv_dx = duv_dy = (0.0, 0.0)
                if derivatives:
                    quad_x = float(x & ~1) + 0.5
                    quad_y = float(y & ~1) + 0.5
                    duv_dx, duv_dy = _quad_derivatives(
                        v0, v1, v2, area, inv_w, quad_x, quad_y
                    )
                rasterizer.fragments_generated += 1
                yield Fragment(
                    x=x, y=y, depth=depth, color=color, uv=uv,
                    duv_dx=duv_dx, duv_dy=duv_dy,
                )

    # -- shading ---------------------------------------------------------------------

    def shade(self, fragment: Fragment) -> tuple[float, float, float, float]:
        """Vertex color times one texture sample."""
        color = fragment.color
        texture = self.texture
        if texture is not None:
            lod = 0.0
            if texture.mip_count > 1:
                lod = float(
                    texture.lod_many(
                        np.array([fragment.duv_dx], dtype=np.float64),
                        np.array([fragment.duv_dy], dtype=np.float64),
                    )[0]
                )
            word = texture._sampler.sample(texture.state, fragment.uv[0], fragment.uv[1], lod)
            texel = tuple(((word >> shift) & 0xFF) / 255.0 for shift in (0, 8, 16, 24))
            color = tuple(color[c] * texel[c] for c in range(4))
        return color

    # -- fragment operations -----------------------------------------------------------

    def process(self, fragment: Fragment, color) -> None:
        """Alpha, stencil and depth tests, then fog, blend and the writes."""
        ops, framebuffer = self.fragment_ops, self.framebuffer
        ops.fragments_in += 1
        x, y = fragment.x, fragment.y
        if not framebuffer.contains(x, y):
            return
        if ops.alpha_test and not compare(ops.alpha_func, color[3], ops.alpha_ref):
            ops.alpha_kills += 1
            return
        if ops.stencil_test and not compare(
            ops.stencil_func, float(framebuffer.stencil[y, x]), float(ops.stencil_ref)
        ):
            ops.stencil_kills += 1
            return
        if ops.depth_test and not compare(
            ops.depth_func, fragment.depth, float(framebuffer.depth[y, x])
        ):
            ops.depth_kills += 1
            return

        framebuffer.write_pixel(x, y, self._blend(x, y, self._fog(color, fragment.depth)))
        if ops.depth_test and ops.depth_write:
            framebuffer.depth[y, x] = fragment.depth
        if ops.stencil_test:
            framebuffer.stencil[y, x] = ops.stencil_ref & 0xFF
        ops.fragments_written += 1

    def _fog(self, color, depth: float):
        fog = self.fragment_ops.fog
        if not fog.enabled or fog.end <= fog.start:
            return color
        factor = min(max((depth - fog.start) / (fog.end - fog.start), 0.0), 1.0)
        if factor == 0.0:
            return color
        return (
            color[0] * (1 - factor) + fog.color[0] * factor,
            color[1] * (1 - factor) + fog.color[1] * factor,
            color[2] * (1 - factor) + fog.color[2] * factor,
            color[3],
        )

    def _blend(self, x: int, y: int, color):
        blend = self.fragment_ops.blend
        src = tuple(min(max(channel, 0.0), 1.0) for channel in color)
        if blend is BlendMode.REPLACE:
            blended = src
        else:
            dst_bytes = unpack_color(int(self.framebuffer.color[y, x]))
            dst = tuple(channel / 255.0 for channel in dst_bytes)
            if blend is BlendMode.ALPHA:
                alpha = src[3]
                blended = tuple(src[c] * alpha + dst[c] * (1 - alpha) for c in range(3)) + (src[3],)
            else:  # ADDITIVE
                blended = tuple(min(src[c] + dst[c], 1.0) for c in range(3)) + (src[3],)
        return tuple(int(round(channel * 255)) for channel in blended)
