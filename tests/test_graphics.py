"""Tests for the software graphics pipeline."""

import math

import numpy as np
import pytest

from repro.graphics.fragment import BlendMode, CompareFunc, FogState, FragmentOps
from repro.graphics.framebuffer import Framebuffer, pack_color, unpack_color
from repro.graphics.geometry import GeometryStage, Matrix4, Vertex
from repro.graphics.pipeline import GraphicsContext, PrimitiveType, TextureBinding
from repro.graphics.raster import Fragment, FragmentBatch, Rasterizer
from repro.graphics.tiles import TileGrid
from repro.texture.formats import TexFilter


# -- framebuffer -------------------------------------------------------------------------


def test_framebuffer_clear_and_pixel_roundtrip():
    fb = Framebuffer(8, 8)
    fb.clear(color=(10, 20, 30, 255), depth=0.5)
    assert fb.read_pixel(3, 3) == (10, 20, 30, 255)
    assert fb.depth[0, 0] == pytest.approx(0.5)
    fb.write_pixel(1, 2, (200, 100, 50, 255))
    assert fb.read_pixel(1, 2) == (200, 100, 50, 255)
    assert fb.to_rgba_array().shape == (8, 8, 4)


def test_color_packing_roundtrip():
    assert unpack_color(pack_color((1, 2, 3, 4))) == (1, 2, 3, 4)


def test_framebuffer_rejects_bad_size():
    with pytest.raises(ValueError):
        Framebuffer(0, 8)


# -- geometry ----------------------------------------------------------------------------


def test_orthographic_vertex_maps_to_viewport():
    stage = GeometryStage(100, 100)
    stage.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
    centre = stage.process_vertex(Vertex(position=(0, 0, 0, 1)))
    assert centre.x == pytest.approx(49.5)
    assert centre.y == pytest.approx(49.5)
    corner = stage.process_vertex(Vertex(position=(1, 1, 0, 1)))
    assert corner.x == pytest.approx(99)
    assert corner.y == pytest.approx(0)


def test_vertex_behind_eye_is_rejected():
    stage = GeometryStage(64, 64)
    stage.set_mvp(Matrix4.perspective(math.radians(60), 1.0, 0.1, 100.0))
    behind = stage.process_vertex(Vertex(position=(0, 0, 5.0, 1)))  # +z is behind the camera
    assert behind is None


def test_assemble_triangles_culls_offscreen():
    stage = GeometryStage(64, 64)
    stage.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
    onscreen = [
        Vertex(position=(-0.5, -0.5, 0, 1)),
        Vertex(position=(0.5, -0.5, 0, 1)),
        Vertex(position=(0.0, 0.5, 0, 1)),
    ]
    offscreen = [
        Vertex(position=(5.0, 5.0, 0, 1)),
        Vertex(position=(6.0, 5.0, 0, 1)),
        Vertex(position=(5.5, 6.0, 0, 1)),
    ]
    triangles = stage.assemble_triangles(onscreen + offscreen)
    assert len(triangles) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "primitive, count",
    [(PrimitiveType.TRIANGLES, 6), (PrimitiveType.LINES, 4), (PrimitiveType.POINTS, 3)],
)
def test_non_finite_vertex_is_rejected_by_index(primitive, count, bad):
    """A NaN/inf position fails at the vertex stage, naming the vertex."""
    ctx = GraphicsContext(16, 16, tile_size=8)
    vertices = [Vertex(position=(0.1 * i, -0.1 * i, 0, 1)) for i in range(count)]
    vertices[count - 2] = Vertex(position=(0.2, bad, 0, 1))
    with pytest.raises(ValueError, match=f"^vertex {count - 2}: "):
        ctx.draw(vertices, primitive=primitive)
    assert ctx.fragment_ops.fragments_in == 0  # rejected before anything was drawn


def test_matrix_helpers_are_invertible_transforms():
    mvp = Matrix4.translation(1, 2, 3) @ Matrix4.scale(2, 2, 2) @ Matrix4.rotation_z(0.3)
    assert np.linalg.det(mvp) != 0
    assert Matrix4.rotation_y(0.0) == pytest.approx(np.eye(4))


# -- tiles --------------------------------------------------------------------------------


def test_tile_grid_covers_screen():
    grid = TileGrid(70, 50, tile_size=16)
    assert grid.tiles_x == 5 and grid.tiles_y == 4
    assert sum(tile.width * tile.height for tile in grid.tiles) == 70 * 50


def test_tile_binning_assigns_overlapping_tiles_only():
    grid = TileGrid(64, 64, tile_size=16)
    count = grid.bin_bbox(0, 0, 0, 15, 15)
    assert count == 1
    count = grid.bin_bbox(1, 10, 10, 40, 40)
    assert count == 9
    assert grid.bin_bbox(2, 100, 100, 120, 120) == 0
    stats = grid.bin_statistics()
    assert stats["occupied"] == 9  # triangle 1 covers 9 tiles (incl. triangle 0's)
    assert grid.triangles_in(grid.tiles[0]) == [0, 1]


# -- rasterizer ---------------------------------------------------------------------------


def _screen_triangle(stage_size=32):
    stage = GeometryStage(stage_size, stage_size)
    stage.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
    return stage.assemble_triangles(
        [
            Vertex(position=(-0.8, -0.8, 0, 1), color=(1, 0, 0, 1), uv=(0, 0)),
            Vertex(position=(0.8, -0.8, 0, 1), color=(0, 1, 0, 1), uv=(1, 0)),
            Vertex(position=(0.0, 0.8, 0, 1), color=(0, 0, 1, 1), uv=(0.5, 1)),
        ]
    )[0]


def test_triangle_rasterization_covers_interior():
    rasterizer = Rasterizer(32, 32)
    batch = rasterizer.rasterize_triangle_batch(*_screen_triangle())
    assert len(batch) > 100
    assert batch.xs.max() < 32 and batch.ys.max() < 32
    # Barycentric colors stay inside the convex hull of the vertex colors.
    for color in batch.color[::37]:
        assert all(-1e-6 <= channel <= 1 + 1e-6 for channel in color)


def test_degenerate_triangle_is_culled():
    rasterizer = Rasterizer(16, 16)
    stage = GeometryStage(16, 16)
    stage.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
    v = stage.process_vertex(Vertex(position=(0, 0, 0, 1)))
    assert rasterizer.rasterize_triangle_batch(v, v, v) is None
    assert rasterizer.triangles_culled == 1


def test_adjacent_triangles_shade_seam_pixels_exactly_once():
    """Top-left fill rule: the shared edge of two triangles must not double-blend."""
    from repro.graphics.geometry import ScreenVertex

    def vertex(x, y):
        return ScreenVertex(x=x, y=y, z=0.5, w=1.0, color=(0.25, 0.25, 0.25, 1.0), uv=(0, 0))

    # A quad split along its diagonal; the diagonal, the verticals and the
    # horizontals all pass exactly through pixel centres.
    a, b, c, d = vertex(2.5, 2.5), vertex(8.5, 2.5), vertex(8.5, 12.5), vertex(2.5, 12.5)
    rasterizer = Rasterizer(16, 16)
    batches = [rasterizer.rasterize_triangle_batch(a, b, c),
               rasterizer.rasterize_triangle_batch(a, c, d)]
    pixels = [(int(x), int(y)) for batch in batches for x, y in zip(batch.xs, batch.ys)]
    assert len(pixels) == len(set(pixels)), "seam pixels rasterized twice"
    # The union covers the quad interior: top/left edges in, bottom/right out.
    assert set(pixels) == {(x, y) for x in range(2, 8) for y in range(2, 12)}

    # End to end: additive blend over black writes each seam pixel once.
    fb = Framebuffer(16, 16)
    ops = FragmentOps(depth_test=False, blend=BlendMode.ADDITIVE)
    for batch in batches:
        ops.process_many(fb, batch)
    covered = fb.color[fb.color != 0]
    assert ops.fragments_written == 60
    assert covered.size == 60
    assert np.all((covered & 0xFF) == 64), "a seam pixel blended twice"


def test_line_rasterization_emits_each_endpoint_once():
    """The DDA walk must not emit a duplicate endpoint fragment."""
    from repro.graphics.geometry import ScreenVertex

    def vertex(x, y):
        return ScreenVertex(x=x, y=y, z=0.0, w=1.0, color=(1, 1, 1, 1), uv=(0, 0))

    rasterizer = Rasterizer(32, 32)
    fragments = list(rasterizer.rasterize_line(vertex(2.0, 3.0), vertex(9.0, 3.0)))
    pixels = [(fragment.x, fragment.y) for fragment in fragments]
    assert pixels == [(x, 3) for x in range(2, 10)]  # 8 fragments, no duplicates
    assert rasterizer.fragments_generated == 8

    # Additive blend along the line leaves every pixel written exactly once.
    fb = Framebuffer(32, 32)
    ops = FragmentOps(depth_test=False, blend=BlendMode.ADDITIVE)
    quarter_grey = np.full((len(fragments), 4), (0.25, 0.25, 0.25, 1.0))
    ops.process_many(fb, FragmentBatch.from_fragments(fragments), quarter_grey)
    covered = fb.color[fb.color != 0]
    assert covered.size == 8
    assert np.all((covered & 0xFF) == 64)


def test_line_rasterization_has_no_holes_or_duplicates():
    """Fractional deltas must not skip pixels; rounding ties must not repeat them."""
    from repro.graphics.geometry import ScreenVertex

    def vertex(x, y):
        return ScreenVertex(x=x, y=y, z=0.0, w=1.0, color=(1, 1, 1, 1), uv=(0, 0))

    rasterizer = Rasterizer(32, 32)
    # dx = 1.9: a truncated step count would stride 1.9 pixels and skip x=3.
    fragments = list(rasterizer.rasterize_line(vertex(2.4, 3.0), vertex(4.3, 3.0)))
    assert [(f.x, f.y) for f in fragments] == [(2, 3), (3, 3), (4, 3)]
    # Half-integer endpoints put every interpolated x on a rounding tie;
    # banker's rounding maps 3.5 and 4.5 both to 4 — pixels must still be unique.
    fragments = list(rasterizer.rasterize_line(vertex(2.5, 3.0), vertex(10.5, 3.0)))
    pixels = [(f.x, f.y) for f in fragments]
    assert len(pixels) == len(set(pixels))
    assert pixels == [(x, 3) for x in (2, 4, 6, 8, 10)]

    rng = np.random.default_rng(13)
    for _ in range(50):
        (x0, y0), (x1, y1) = rng.uniform(0, 31, size=(2, 2))
        pixels = [(f.x, f.y) for f in rasterizer.rasterize_line(vertex(x0, y0), vertex(x1, y1))]
        assert len(pixels) == len(set(pixels)), "duplicate line pixel"
        for (ax, ay), (bx, by) in zip(pixels, pixels[1:]):
            assert max(abs(bx - ax), abs(by - ay)) == 1, "hole in line"


def test_line_and_point_rasterization():
    rasterizer = Rasterizer(32, 32)
    stage = GeometryStage(32, 32)
    stage.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
    v0 = stage.process_vertex(Vertex(position=(-1, -1, 0, 1)))
    v1 = stage.process_vertex(Vertex(position=(1, 1, 0, 1)))
    line = list(rasterizer.rasterize_line(v0, v1))
    assert len(line) >= 31
    point = list(rasterizer.rasterize_point(v0))
    assert len(point) == 1


# -- fragment ops ----------------------------------------------------------------------------


def _batch(*fragments):
    """A FragmentBatch with one row per fragment (pixels must be distinct)."""
    return FragmentBatch.from_fragments(fragments)


def test_depth_test_keeps_nearest_fragment():
    fb = Framebuffer(4, 4)
    fb.clear()
    ops = FragmentOps(depth_test=True)
    far = Fragment(x=1, y=1, depth=0.9, color=(1, 0, 0, 1), uv=(0, 0))
    near = Fragment(x=1, y=1, depth=0.1, color=(0, 1, 0, 1), uv=(0, 0))
    assert ops.process_many(fb, _batch(far)) == 1
    assert ops.process_many(fb, _batch(near)) == 1
    assert ops.process_many(fb, _batch(far)) == 0  # re-drawing the far fragment fails the test
    assert ops.depth_kills == 1
    assert fb.read_pixel(1, 1)[1] == 255  # green won


def test_alpha_test_discards_transparent_fragments():
    fb = Framebuffer(4, 4)
    ops = FragmentOps(depth_test=False, alpha_test=True, alpha_ref=0.5)
    transparent = Fragment(x=0, y=0, depth=0.5, color=(1, 1, 1, 0.1), uv=(0, 0))
    opaque = Fragment(x=0, y=0, depth=0.5, color=(1, 1, 1, 0.9), uv=(0, 0))
    assert ops.process_many(fb, _batch(transparent)) == 0
    assert ops.process_many(fb, _batch(opaque)) == 1
    assert ops.alpha_kills == 1


def test_stencil_test_masks_pixels():
    fb = Framebuffer(4, 4)
    fb.stencil[2, 2] = 1
    ops = FragmentOps(depth_test=False, stencil_test=True,
                      stencil_func=CompareFunc.EQUAL, stencil_ref=1)
    inside = Fragment(x=2, y=2, depth=0.5, color=(1, 1, 1, 1), uv=(0, 0))
    outside = Fragment(x=0, y=0, depth=0.5, color=(1, 1, 1, 1), uv=(0, 0))
    assert ops.process_many(fb, _batch(inside)) == 1
    assert ops.process_many(fb, _batch(outside)) == 0
    assert ops.stencil_kills == 1
    # One two-row batch: each fragment meets its own stencil value.
    assert ops.process_many(fb, _batch(outside, inside)) == 1
    assert ops.stencil_kills == 2


def test_fog_blends_toward_fog_color():
    fb = Framebuffer(2, 2)
    ops = FragmentOps(depth_test=False,
                      fog=FogState(enabled=True, color=(0, 0, 0), start=0.0, end=1.0))
    fragment = Fragment(x=0, y=0, depth=0.75, color=(1.0, 1.0, 1.0, 1.0), uv=(0, 0))
    ops.process_many(fb, _batch(fragment))
    r, g, b, _ = fb.read_pixel(0, 0)
    assert r == g == b
    assert 50 <= r <= 80  # 25% of full white


def test_alpha_blending_mixes_with_destination():
    fb = Framebuffer(2, 2)
    fb.clear(color=(0, 0, 255, 255))
    ops = FragmentOps(depth_test=False, blend=BlendMode.ALPHA)
    fragment = Fragment(x=0, y=0, depth=0.5, color=(1.0, 0.0, 0.0, 0.5), uv=(0, 0))
    ops.process_many(fb, _batch(fragment))
    r, g, b, _ = fb.read_pixel(0, 0)
    assert 120 <= r <= 135 and 120 <= b <= 135


# -- full pipeline ------------------------------------------------------------------------------


def _solid_triangle_context(size=32):
    ctx = GraphicsContext(size, size, tile_size=8)
    ctx.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
    ctx.clear(color=(0, 0, 0, 255))
    return ctx


def test_context_renders_triangle():
    ctx = _solid_triangle_context()
    written = ctx.draw(
        [
            Vertex(position=(-0.9, -0.9, 0, 1), color=(1, 1, 1, 1)),
            Vertex(position=(0.9, -0.9, 0, 1), color=(1, 1, 1, 1)),
            Vertex(position=(0.0, 0.9, 0, 1), color=(1, 1, 1, 1)),
        ]
    )
    assert written > 100
    assert ctx.framebuffer.nonblack_pixels() == written


def test_context_depth_ordering_between_draws():
    ctx = _solid_triangle_context()
    # With the OpenGL orthographic convention, larger eye-space z maps to a
    # smaller depth value here, so the +0.5 triangle is the near one.
    near = [
        Vertex(position=(-0.5, -0.5, 0.5, 1), color=(0, 1, 0, 1)),
        Vertex(position=(0.5, -0.5, 0.5, 1), color=(0, 1, 0, 1)),
        Vertex(position=(0.0, 0.5, 0.5, 1), color=(0, 1, 0, 1)),
    ]
    far = [
        Vertex(position=(-0.5, -0.5, -0.5, 1), color=(1, 0, 0, 1)),
        Vertex(position=(0.5, -0.5, -0.5, 1), color=(1, 0, 0, 1)),
        Vertex(position=(0.0, 0.5, -0.5, 1), color=(1, 0, 0, 1)),
    ]
    ctx.draw(near)
    ctx.draw(far)
    centre = ctx.framebuffer.read_pixel(16, 16)
    assert centre[1] == 255 and centre[0] == 0  # near (green) triangle wins


def test_context_textured_draw_modulates_color():
    ctx = _solid_triangle_context(32)
    checker = np.zeros((8, 8, 4), dtype=np.uint8)
    checker[:, :, 3] = 255
    checker[::2, ::2, :3] = 255
    checker[1::2, 1::2, :3] = 255
    ctx.bind_texture(checker, filter_mode=TexFilter.POINT)
    ctx.draw(
        [
            Vertex(position=(-1, -1, 0, 1), uv=(0, 0)),
            Vertex(position=(1, -1, 0, 1), uv=(1, 0)),
            Vertex(position=(0, 1, 0, 1), uv=(0.5, 1)),
        ]
    )
    pixels = ctx.framebuffer.to_rgba_array()
    covered = pixels[..., :3].sum(axis=2) > 0
    assert covered.any()
    # A checkerboard texture leaves some covered pixels black and some white.
    values = ctx.framebuffer.color[covered ^ (pixels[..., 3] == 0)]
    assert ctx.framebuffer.nonblack_pixels() < covered.sum() + (pixels[..., 3] > 0).sum()


def test_texture_binding_validation():
    with pytest.raises(ValueError):
        TextureBinding(np.zeros((7, 8, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        TextureBinding(np.zeros((8, 8, 3), dtype=np.uint8))


def test_points_and_lines_primitives():
    ctx = _solid_triangle_context(16)
    points_written = ctx.draw(
        [Vertex(position=(0, 0, 0, 1), color=(1, 1, 1, 1))], primitive=PrimitiveType.POINTS
    )
    assert points_written == 1
    lines_written = ctx.draw(
        [
            Vertex(position=(-1, 0, 0, 1), color=(1, 1, 1, 1)),
            Vertex(position=(1, 0, 0, 1), color=(1, 1, 1, 1)),
        ],
        primitive=PrimitiveType.LINES,
    )
    assert lines_written >= 15
