"""Rasterization: point, line and triangle primitives.

Triangles use the standard edge-function formulation with
perspective-correct barycentric interpolation of depth, color and texture
coordinates; lines use a DDA walk; points write single fragments.  The
rasterizer produces fragments (a :class:`FragmentBatch` per triangle and
tile, :class:`Fragment` records for lines and points) that the
fragment-processing stage (depth/stencil/alpha/fog/blend) consumes — the
same split as the paper's software rendering pipeline, where fragments are
the unit of data-parallel work handed to the compute kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from repro.graphics.geometry import ScreenVertex
from repro.graphics.tiles import Tile


@dataclass
class Fragment:
    """One candidate pixel produced by rasterization.

    ``duv_dx``/``duv_dy`` hold the per-quad screen-space finite differences
    of the texture coordinates (zero unless the rasterizer was asked for
    derivatives); the pipeline turns them into a mipmap level of detail.
    """

    x: int
    y: int
    depth: float
    color: tuple[float, float, float, float]
    uv: tuple[float, float]
    duv_dx: tuple[float, float] = (0.0, 0.0)
    duv_dy: tuple[float, float] = (0.0, 0.0)


@dataclass
class FragmentBatch:
    """A batch of fragments with unique pixels, as parallel arrays.

    Produced by the rasterizer and consumed by
    :meth:`~repro.graphics.fragment.FragmentOps.process_many`; the arrays
    are index-aligned (entry ``i`` of each is one fragment).  Every (x, y)
    pair in one batch is distinct, so batched read-modify-write framebuffer
    operations (blending, depth) are order-equivalent to processing the
    fragments one at a time.
    """

    xs: np.ndarray  # int lane of pixel x coordinates
    ys: np.ndarray  # int lane of pixel y coordinates
    depth: np.ndarray  # float64 interpolated depths
    color: np.ndarray  # (N, 4) float64 RGBA
    uv: np.ndarray  # (N, 2) float64 texture coordinates
    duv_dx: np.ndarray | None = None  # (N, 2) per-quad uv finite differences along x
    duv_dy: np.ndarray | None = None  # (N, 2) per-quad uv finite differences along y

    def __len__(self) -> int:
        return int(self.xs.shape[0])

    @classmethod
    def from_fragments(cls, fragments: Sequence[Fragment]) -> FragmentBatch:
        """Stack :class:`Fragment` records (distinct pixels) into one batch."""
        return cls(
            xs=np.array([f.x for f in fragments], dtype=np.intp),
            ys=np.array([f.y for f in fragments], dtype=np.intp),
            depth=np.array([f.depth for f in fragments], dtype=np.float64),
            color=np.array([f.color for f in fragments], dtype=np.float64),
            uv=np.array([f.uv for f in fragments], dtype=np.float64),
            duv_dx=np.array([f.duv_dx for f in fragments], dtype=np.float64),
            duv_dy=np.array([f.duv_dy for f in fragments], dtype=np.float64),
        )


def _edge(ax: float, ay: float, bx: float, by: float, px: float, py: float) -> float:
    """Signed area of the (a, b, p) triangle (the edge function)."""
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _interp_uv(v0, v1, v2, area: float, inv_w, px, py):
    """Perspective-correct uv at arbitrary sample positions.

    ``px``/``py`` may be python floats (the per-fragment reference
    rasterizer in the tests) or float64 arrays (the rasterizer); every
    operation is written once so both evaluate the exact same IEEE-754
    expression sequence.  Sample
    positions where the interpolated 1/w denominator is not positive
    (behind the eye — only reachable for the off-triangle helper pixels of
    a derivative quad) fall back to a denominator of 1 to stay finite.
    """
    w0 = (v2.x - v1.x) * (py - v1.y) - (v2.y - v1.y) * (px - v1.x)
    w1 = (v0.x - v2.x) * (py - v2.y) - (v0.y - v2.y) * (px - v2.x)
    w2 = (v1.x - v0.x) * (py - v0.y) - (v1.y - v0.y) * (px - v0.x)
    b0 = w0 / area
    b1 = w1 / area
    b2 = w2 / area
    denom = (b0 * inv_w[0] + b1 * inv_w[1]) + b2 * inv_w[2]
    # `not denom > 0.0` (rather than `denom <= 0.0`) so NaN denominators
    # take the fallback in the scalar branch exactly as np.where does in
    # the array branch — both must agree bit for bit.
    if isinstance(denom, np.ndarray):
        denom = np.where(denom > 0.0, denom, 1.0)
    elif not denom > 0.0:
        denom = 1.0
    p0 = b0 * inv_w[0] / denom
    p1 = b1 * inv_w[1] / denom
    p2 = b2 * inv_w[2] / denom
    u = (p0 * v0.uv[0] + p1 * v1.uv[0]) + p2 * v2.uv[0]
    v = (p0 * v0.uv[1] + p1 * v1.uv[1]) + p2 * v2.uv[1]
    return u, v


def _quad_derivatives(v0, v1, v2, area: float, inv_w, qx, qy):
    """Finite-difference uv derivatives over a 2x2 fragment quad.

    ``qx``/``qy`` are the pixel-centre coordinates of each quad's top-left
    pixel (scalars or arrays).  The uv attribute is evaluated at that
    corner and at its +x / +y neighbours — helper pixels participate even
    when the triangle does not cover them, exactly like the hardware quad —
    and the two differences are shared by every fragment of the quad.
    Returns ``((du_dx, dv_dx), (du_dy, dv_dy))``.
    """
    u00, v00 = _interp_uv(v0, v1, v2, area, inv_w, qx, qy)
    u10, v10 = _interp_uv(v0, v1, v2, area, inv_w, qx + 1.0, qy)
    u01, v01 = _interp_uv(v0, v1, v2, area, inv_w, qx, qy + 1.0)
    return (u10 - u00, v10 - v00), (u01 - u00, v01 - v00)


def _edge_accepts_zero(ax: float, ay: float, bx: float, by: float) -> bool:
    """Top-left fill rule: does a pixel exactly on edge (a -> b) belong to it?

    With screen y growing downward and the winding normalized so the area
    is positive, the edges of a triangle run clockwise on screen.  A pixel
    centre that lies exactly on an edge is owned by the triangle whose edge
    is a *top* edge (horizontal, pointing in +x) or a *left* edge (pointing
    in -y); the adjacent triangle sees the same edge with the opposite
    direction and rejects it, so shared-edge pixels are shaded exactly once.
    """
    dy = by - ay
    return dy < 0 or (dy == 0 and bx - ax > 0)


class Rasterizer:
    """Generates fragments for screen-space primitives.

    With ``perspective_depth`` the interpolated depth uses the same
    perspective-correct 1/w weights as color and uv instead of the
    screen-space linear barycentrics (the classic w-buffer-style option).
    """

    def __init__(self, width: int, height: int, perspective_depth: bool = False):
        self.width = width
        self.height = height
        self.perspective_depth = perspective_depth
        self.fragments_generated = 0
        self.triangles_culled = 0

    # -- triangles ----------------------------------------------------------------------

    def triangle_bbox(self, tri: tuple[ScreenVertex, ...]) -> tuple[float, float, float, float]:
        xs = [vertex.x for vertex in tri]
        ys = [vertex.y for vertex in tri]
        return min(xs), min(ys), max(xs), max(ys)

    def rasterize_triangle_batch(
        self,
        v0: ScreenVertex,
        v1: ScreenVertex,
        v2: ScreenVertex,
        tile: Tile | None = None,
        derivatives: bool = False,
    ) -> FragmentBatch | None:
        """The fragments a triangle covers (optionally limited to a tile).

        Evaluates the three edge functions over the tile's pixel grid as
        float64 arrays and interpolates depth/color/uv for every covered
        pixel in one shot, in row-major order; pixels exactly on an edge
        follow the top-left fill rule.  With ``derivatives`` every fragment
        carries the per-quad finite-difference uv derivatives of its 2x2
        fragment quad.  Returns ``None`` when the triangle produces no
        fragments.
        """
        area = _edge(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
        if abs(area) < 1e-9:
            self.triangles_culled += 1
            return None
        if area < 0:
            v1, v2 = v2, v1
            area = -area

        min_x = max(int(min(v0.x, v1.x, v2.x)), tile.x0 if tile else 0)
        max_x = min(int(max(v0.x, v1.x, v2.x)) + 1, (tile.x1 if tile else self.width) - 1)
        min_y = max(int(min(v0.y, v1.y, v2.y)), tile.y0 if tile else 0)
        max_y = min(int(max(v0.y, v1.y, v2.y)) + 1, (tile.y1 if tile else self.height) - 1)
        if min_x > max_x or min_y > max_y:
            return None

        px = np.arange(min_x, max_x + 1, dtype=np.float64) + 0.5  # (W,)
        py = np.arange(min_y, max_y + 1, dtype=np.float64)[:, None] + 0.5  # (H, 1)
        w0 = (v2.x - v1.x) * (py - v1.y) - (v2.y - v1.y) * (px - v1.x)
        w1 = (v0.x - v2.x) * (py - v2.y) - (v0.y - v2.y) * (px - v2.x)
        w2 = (v1.x - v0.x) * (py - v0.y) - (v1.y - v0.y) * (px - v0.x)
        accept0 = _edge_accepts_zero(v1.x, v1.y, v2.x, v2.y)
        accept1 = _edge_accepts_zero(v2.x, v2.y, v0.x, v0.y)
        accept2 = _edge_accepts_zero(v0.x, v0.y, v1.x, v1.y)
        covered = (
            ((w0 > 0) if not accept0 else (w0 >= 0))
            & ((w1 > 0) if not accept1 else (w1 >= 0))
            & ((w2 > 0) if not accept2 else (w2 >= 0))
        )
        if not covered.any():
            return None
        iy, ix = np.nonzero(covered)  # row-major

        inv_w = (1.0 / v0.w, 1.0 / v1.w, 1.0 / v2.w)
        b0 = w0[covered] / area
        b1 = w1[covered] / area
        b2 = w2[covered] / area
        denom = (b0 * inv_w[0] + b1 * inv_w[1]) + b2 * inv_w[2]
        visible = denom > 0
        if not visible.all():
            b0, b1, b2, denom = b0[visible], b1[visible], b2[visible], denom[visible]
            iy, ix = iy[visible], ix[visible]
        if b0.shape[0] == 0:
            return None
        p0 = b0 * inv_w[0] / denom
        p1 = b1 * inv_w[1] / denom
        p2 = b2 * inv_w[2] / denom
        if self.perspective_depth:
            depth = (p0 * v0.z + p1 * v1.z) + p2 * v2.z
        else:
            depth = (b0 * v0.z + b1 * v1.z) + b2 * v2.z
        color = np.empty((b0.shape[0], 4), dtype=np.float64)
        for channel in range(4):
            color[:, channel] = (
                p0 * v0.color[channel] + p1 * v1.color[channel]
            ) + p2 * v2.color[channel]
        uv = np.empty((b0.shape[0], 2), dtype=np.float64)
        uv[:, 0] = (p0 * v0.uv[0] + p1 * v1.uv[0]) + p2 * v2.uv[0]
        uv[:, 1] = (p0 * v0.uv[1] + p1 * v1.uv[1]) + p2 * v2.uv[1]
        xs = ix + min_x
        ys = iy + min_y
        duv_dx = duv_dy = None
        if derivatives:
            # One derivative pair per 2x2 quad, evaluated at the quad's
            # top-left pixel centre as float64 planes.  Quadmates
            # redundantly evaluate the same corner, but de-duplicating via
            # np.unique measures ~40% slower at tile-batch sizes (the sort
            # and gathers cost more than the shorter evaluation saves).
            quad_x = (xs & ~1).astype(np.float64) + 0.5
            quad_y = (ys & ~1).astype(np.float64) + 0.5
            dx, dy = _quad_derivatives(v0, v1, v2, area, inv_w, quad_x, quad_y)
            duv_dx = np.empty((b0.shape[0], 2), dtype=np.float64)
            duv_dy = np.empty((b0.shape[0], 2), dtype=np.float64)
            duv_dx[:, 0], duv_dx[:, 1] = dx
            duv_dy[:, 0], duv_dy[:, 1] = dy
        self.fragments_generated += int(b0.shape[0])
        return FragmentBatch(
            xs=xs, ys=ys, depth=depth, color=color, uv=uv,
            duv_dx=duv_dx, duv_dy=duv_dy,
        )

    # -- lines and points -----------------------------------------------------------------

    def rasterize_line(self, v0: ScreenVertex, v1: ScreenVertex) -> Iterator[Fragment]:
        """Yield fragments along a line using a DDA walk.

        The walk takes ``ceil(max(|dx|, |dy|))`` steps from ``t = 0`` to
        ``t = 1`` inclusive, so the major axis advances by at most one pixel
        per step and no pixel is skipped; consecutive steps that round to
        the same pixel are collapsed, so no pixel is emitted twice either
        (the historical ``int(max) + 1`` / ``range(steps + 1)`` bound
        emitted a duplicate endpoint fragment that double-blended, and
        rounding ties duplicated interior pixels).  The walk is monotonic
        along both axes, so equal pixels are always consecutive and the
        emitted pixels are all distinct.
        """
        dx = v1.x - v0.x
        dy = v1.y - v0.y
        steps = math.ceil(max(abs(dx), abs(dy)))
        previous = None
        for step in range(steps + 1):
            t = step / steps if steps else 0.0
            x = int(round(v0.x + dx * t))
            y = int(round(v0.y + dy * t))
            if (x, y) == previous:
                continue
            previous = (x, y)
            if not (0 <= x < self.width and 0 <= y < self.height):
                continue
            depth = v0.z + (v1.z - v0.z) * t
            color = tuple(v0.color[c] + (v1.color[c] - v0.color[c]) * t for c in range(4))
            uv = (v0.uv[0] + (v1.uv[0] - v0.uv[0]) * t, v0.uv[1] + (v1.uv[1] - v0.uv[1]) * t)
            self.fragments_generated += 1
            yield Fragment(x=x, y=y, depth=depth, color=color, uv=uv)

    def rasterize_point(self, v0: ScreenVertex) -> Iterator[Fragment]:
        """Yield the single fragment of a point primitive."""
        x, y = int(round(v0.x)), int(round(v0.y))
        if 0 <= x < self.width and 0 <= y < self.height:
            self.fragments_generated += 1
            yield Fragment(x=x, y=y, depth=v0.z, color=v0.color, uv=v0.uv)
