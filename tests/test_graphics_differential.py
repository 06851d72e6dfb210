"""Differential test: the batched renderer vs the per-fragment reference.

Every scenario renders twice — once on ``GraphicsContext``, once on the
test-side ``RefGraphicsContext`` (``tests/graphics_reference.py``) — and
the results must be pixel-identical: the color buffer, the depth buffer
(compared bitwise), the stencil buffer, and the fragment statistics
(fragments generated/in/written and each kill counter), mirroring the
oracle-driver differential suite for the execution engine.
"""

import numpy as np
import pytest
from graphics_reference import RefGraphicsContext

import repro.graphics
from repro.graphics.fragment import BlendMode, CompareFunc, FogState
from repro.graphics.geometry import Matrix4, Vertex
from repro.graphics.pipeline import GraphicsContext, PrimitiveType
from repro.graphics.raster import Rasterizer
from repro.texture.formats import TexFilter, TexWrap


def _checker_texture(size=16, seed=5):
    rng = np.random.default_rng(seed)
    image = rng.integers(0, 256, size=(size, size, 4), dtype=np.uint8)
    image[..., 3] = 255
    return image


def _triangle_fan(count, alpha=1.0, z_spread=True):
    rng = np.random.default_rng(29)
    vertices = []
    for index in range(count):
        z = (index / max(count - 1, 1)) - 0.5 if z_spread else 0.0
        for _ in range(3):
            x, y = rng.uniform(-1.1, 1.1, size=2)
            color = tuple(rng.uniform(0, 1, size=3)) + (alpha,)
            uv = tuple(rng.uniform(-0.5, 1.5, size=2))
            vertices.append(Vertex(position=(x, y, z, 1.0), color=color, uv=uv))
    return vertices


def _seam_quad():
    """Two triangles sharing a diagonal that crosses pixel centres."""
    a = Vertex(position=(-0.75, -0.75, 0, 1), color=(0.3, 0.3, 0.3, 1.0))
    b = Vertex(position=(0.75, -0.75, 0, 1), color=(0.3, 0.3, 0.3, 1.0))
    c = Vertex(position=(0.75, 0.75, 0, 1), color=(0.3, 0.3, 0.3, 1.0))
    d = Vertex(position=(-0.75, 0.75, 0, 1), color=(0.3, 0.3, 0.3, 1.0))
    return [a, b, c, a, c, d]


def _scenario_untextured(ctx):
    ctx.draw(_triangle_fan(6))


def _scenario_textured_bilinear(ctx):
    ctx.bind_texture(_checker_texture(), filter_mode=TexFilter.BILINEAR,
                     wrap=TexWrap.REPEAT)
    ctx.draw(_triangle_fan(6))


def _scenario_textured_point(ctx):
    ctx.bind_texture(_checker_texture(), filter_mode=TexFilter.POINT,
                     wrap=TexWrap.MIRROR)
    ctx.draw(_triangle_fan(6))


def _scenario_alpha_blend(ctx):
    ctx.fragment_ops.blend = BlendMode.ALPHA
    ctx.fragment_ops.depth_test = False
    ctx.bind_texture(_checker_texture(), filter_mode=TexFilter.BILINEAR)
    ctx.draw(_triangle_fan(8, alpha=0.6, z_spread=False))


def _scenario_additive_seam(ctx):
    ctx.fragment_ops.blend = BlendMode.ADDITIVE
    ctx.fragment_ops.depth_test = False
    ctx.draw(_seam_quad())


def _scenario_alpha_test(ctx):
    ctx.fragment_ops.alpha_test = True
    ctx.fragment_ops.alpha_func = CompareFunc.GREATER
    ctx.fragment_ops.alpha_ref = 0.5
    ctx.bind_texture(_checker_texture(), filter_mode=TexFilter.BILINEAR)
    ctx.draw(_triangle_fan(4, alpha=0.4, z_spread=False) + _triangle_fan(4, alpha=0.9))


def _scenario_stencil(ctx):
    ctx.framebuffer.stencil[8:24, 8:24] = 1
    ctx.fragment_ops.stencil_test = True
    ctx.fragment_ops.stencil_func = CompareFunc.EQUAL
    ctx.fragment_ops.stencil_ref = 1
    ctx.draw(_triangle_fan(5))


def _scenario_fog(ctx):
    ctx.fragment_ops.fog = FogState(enabled=True, color=(0.2, 0.3, 0.4),
                                    start=0.2, end=0.8)
    ctx.draw(_triangle_fan(5))


def _scenario_depth_funcs(ctx):
    ctx.fragment_ops.depth_func = CompareFunc.LEQUAL
    ctx.draw(_triangle_fan(6))
    ctx.fragment_ops.depth_func = CompareFunc.GREATER
    ctx.draw(_triangle_fan(6))


def _scenario_lines(ctx):
    ctx.bind_texture(_checker_texture(), filter_mode=TexFilter.BILINEAR)
    ctx.fragment_ops.blend = BlendMode.ALPHA
    rng = np.random.default_rng(17)
    vertices = [
        Vertex(position=(x, y, 0, 1), color=(1, 1, 0.5, 0.8), uv=(x, y))
        for x, y in rng.uniform(-1, 1, size=(12, 2))
    ]
    ctx.draw(vertices, primitive=PrimitiveType.LINES)


def _scenario_lines_rounding_ties(ctx):
    """Half-integer screen coordinates put every DDA step on a rounding tie."""
    ctx.fragment_ops.blend = BlendMode.ADDITIVE
    ctx.fragment_ops.depth_test = False
    # An orthographic [-1, 1] viewport on 32 pixels maps x = -1 to 0 and
    # x = 1 to 31; picking NDC values at odd/31 * 2 - 1 lands on .5 pixels.
    def ndc(pixel):
        return pixel / 31 * 2 - 1

    vertices = [
        Vertex(position=(ndc(2.5), ndc(3.0), 0, 1), color=(0.25, 0.25, 0.25, 1.0)),
        Vertex(position=(ndc(10.5), ndc(3.0), 0, 1), color=(0.25, 0.25, 0.25, 1.0)),
        Vertex(position=(ndc(4.5), ndc(6.5), 0, 1), color=(0.25, 0.25, 0.25, 1.0)),
        Vertex(position=(ndc(4.5), ndc(20.5), 0, 1), color=(0.25, 0.25, 0.25, 1.0)),
    ]
    ctx.draw(vertices, primitive=PrimitiveType.LINES)


def _scenario_points(ctx):
    ctx.fragment_ops.blend = BlendMode.ADDITIVE
    ctx.fragment_ops.depth_test = False
    rng = np.random.default_rng(23)
    vertices = [
        Vertex(position=(x, y, 0, 1), color=(0.3, 0.2, 0.1, 1.0))
        for x, y in rng.uniform(-1, 1, size=(40, 2))
    ]
    # Repeated points must blend twice on both renderers.
    ctx.draw(vertices + vertices[:10], primitive=PrimitiveType.POINTS)


def _scenario_perspective(ctx):
    ctx.set_mvp(
        Matrix4.perspective(np.radians(60), 1.0, 0.1, 50.0)
        @ Matrix4.translation(0, 0, -2.5)
        @ Matrix4.rotation_y(0.6)
    )
    ctx.bind_texture(_checker_texture(), filter_mode=TexFilter.BILINEAR)
    ctx.draw(_triangle_fan(6))


def _textured_quad(uv_scale, z=0.0):
    """A screen-filling two-triangle quad with uv in [0, uv_scale]."""
    corners = (
        ((-0.95, -0.95), (0.0, 0.0)),
        ((0.95, -0.95), (uv_scale, 0.0)),
        ((0.95, 0.95), (uv_scale, uv_scale)),
        ((-0.95, 0.95), (0.0, uv_scale)),
    )

    def vertex(index):
        (x, y), uv = corners[index]
        return Vertex(position=(x, y, z, 1.0), color=(1.0, 1.0, 1.0, 1.0), uv=uv)

    return [vertex(0), vertex(1), vertex(2), vertex(0), vertex(2), vertex(3)]


def _scenario_trilinear_minified(ctx):
    """uv spans many texels per pixel: derivative LOD lands mid-chain and
    the trilinear filter blends two generated mip levels."""
    ctx.bind_texture(_checker_texture(32), filter_mode=TexFilter.TRILINEAR,
                     wrap=TexWrap.REPEAT, mipmaps=True)
    ctx.draw(_textured_quad(uv_scale=8.0))


def _scenario_trilinear_magnified(ctx):
    """uv spans a fraction of a texel per pixel: LOD clamps to the base level."""
    ctx.bind_texture(_checker_texture(32), filter_mode=TexFilter.TRILINEAR,
                     wrap=TexWrap.CLAMP, mipmaps=True)
    ctx.draw(_textured_quad(uv_scale=0.2))


def _scenario_trilinear_perspective(ctx):
    """Perspective projection: the LOD varies across each triangle."""
    ctx.set_mvp(
        Matrix4.perspective(np.radians(70), 1.0, 0.1, 50.0)
        @ Matrix4.translation(0, 0, -1.6)
        @ Matrix4.rotation_y(1.0)
    )
    ctx.bind_texture(_checker_texture(32), filter_mode=TexFilter.TRILINEAR,
                     wrap=TexWrap.REPEAT, mipmaps=True)
    ctx.draw(_textured_quad(uv_scale=6.0))


def _scenario_bilinear_mipmapped(ctx):
    """Bilinear + mip chain: derivative LOD truncated to one level."""
    ctx.bind_texture(_checker_texture(32), filter_mode=TexFilter.BILINEAR,
                     wrap=TexWrap.MIRROR, mipmaps=True)
    ctx.draw(_textured_quad(uv_scale=5.0) + _textured_quad(uv_scale=0.4, z=-0.5))


def _scenario_point_mipmapped(ctx):
    """Point filter + mip chain: nearest texel of the derivative-selected level."""
    ctx.bind_texture(_checker_texture(32), filter_mode=TexFilter.POINT,
                     wrap=TexWrap.REPEAT, mipmaps=True)
    ctx.draw(_textured_quad(uv_scale=7.0))


def _scenario_trilinear_no_mips(ctx):
    """Trilinear without a generated chain degrades to the base level."""
    ctx.bind_texture(_checker_texture(), filter_mode=TexFilter.TRILINEAR,
                     wrap=TexWrap.REPEAT)
    ctx.draw(_triangle_fan(5))


def _scenario_perspective_depth(ctx):
    ctx.set_mvp(
        Matrix4.perspective(np.radians(60), 1.0, 0.1, 50.0)
        @ Matrix4.translation(0, 0, -2.2)
        @ Matrix4.rotation_y(0.5)
    )
    ctx.bind_texture(_checker_texture(32), filter_mode=TexFilter.TRILINEAR,
                     wrap=TexWrap.REPEAT, mipmaps=True)
    ctx.draw(_triangle_fan(6))


SCENARIOS = {
    "untextured": _scenario_untextured,
    "textured_bilinear": _scenario_textured_bilinear,
    "textured_point": _scenario_textured_point,
    "alpha_blend": _scenario_alpha_blend,
    "additive_seam": _scenario_additive_seam,
    "alpha_test": _scenario_alpha_test,
    "stencil": _scenario_stencil,
    "fog": _scenario_fog,
    "depth_funcs": _scenario_depth_funcs,
    "lines": _scenario_lines,
    "lines_rounding_ties": _scenario_lines_rounding_ties,
    "points": _scenario_points,
    "perspective": _scenario_perspective,
    "trilinear_minified": _scenario_trilinear_minified,
    "trilinear_magnified": _scenario_trilinear_magnified,
    "trilinear_perspective": _scenario_trilinear_perspective,
    "bilinear_mipmapped": _scenario_bilinear_mipmapped,
    "point_mipmapped": _scenario_point_mipmapped,
    "trilinear_no_mips": _scenario_trilinear_no_mips,
    "perspective_depth": _scenario_perspective_depth,
}

#: Extra GraphicsContext keyword arguments per scenario.
CONTEXT_KWARGS = {
    "perspective_depth": {"perspective_depth": True},
}


def _render(context_cls, scenario):
    kwargs = CONTEXT_KWARGS.get(scenario, {})
    ctx = context_cls(32, 32, tile_size=8, **kwargs)
    ctx.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
    ctx.clear(color=(12, 8, 24, 255))
    SCENARIOS[scenario](ctx)
    return ctx


def _statistics(ctx):
    ops = ctx.fragment_ops
    return {
        "generated": ctx.rasterizer.fragments_generated,
        "culled": ctx.rasterizer.triangles_culled,
        "in": ops.fragments_in,
        "written": ops.fragments_written,
        "depth_kills": ops.depth_kills,
        "alpha_kills": ops.alpha_kills,
        "stencil_kills": ops.stencil_kills,
    }


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_vector_graphics_matches_scalar_reference(scenario):
    reference = _render(RefGraphicsContext, scenario)
    batched = _render(GraphicsContext, scenario)

    assert np.array_equal(reference.framebuffer.color, batched.framebuffer.color), (
        f"{scenario}: color buffers differ"
    )
    # Depth is float32: compare the raw bits, not approximate values.
    assert np.array_equal(
        reference.framebuffer.depth.view(np.uint32),
        batched.framebuffer.depth.view(np.uint32),
    ), f"{scenario}: depth buffers differ"
    assert np.array_equal(reference.framebuffer.stencil, batched.framebuffer.stencil), (
        f"{scenario}: stencil buffers differ"
    )
    assert _statistics(reference) == _statistics(batched), f"{scenario}: statistics differ"
    # The scene must actually touch the framebuffer to be a meaningful diff.
    assert reference.fragment_ops.fragments_in > 0


def test_reference_context_renders_one_fragment_at_a_time(monkeypatch):
    """The differential must compare two paths, not the batched one twice."""
    calls = []
    per_fragment = RefGraphicsContext.rasterize_triangle

    def spy(self, *args):
        calls.append(args)
        return per_fragment(self, *args)

    def batched(*args, **kwargs):
        raise AssertionError("the reference reached the batched rasterizer")

    monkeypatch.setattr(RefGraphicsContext, "rasterize_triangle", spy)
    monkeypatch.setattr(Rasterizer, "rasterize_triangle_batch", batched)
    ctx = _render(RefGraphicsContext, "textured_bilinear")
    assert calls
    assert ctx.fragment_ops.fragments_written > 0


def test_context_rejects_engine_keyword():
    """One rasterizer path: there is no engine to select."""
    with pytest.raises(TypeError):
        GraphicsContext(8, 8, engine="vector")
    assert not hasattr(repro.graphics, "GRAPHICS_ENGINES")


def test_perspective_depth_changes_the_depth_buffer():
    """The option must actually alter interpolation under a perspective
    projection (uv/color already use 1/w weighting; only depth switches)."""

    def render(perspective_depth):
        ctx = GraphicsContext(32, 32, tile_size=8, perspective_depth=perspective_depth)
        ctx.clear()
        SCENARIOS["perspective_depth"](ctx)
        return ctx.framebuffer.depth.copy()

    linear = render(False)
    perspective = render(True)
    assert not np.array_equal(linear, perspective)


def test_minification_selects_coarser_mips():
    """A minified quad must actually read the generated mip chain: the
    render differs from the same scene clamped to the base level."""

    def render(mipmaps):
        ctx = GraphicsContext(32, 32, tile_size=8)
        ctx.set_mvp(Matrix4.orthographic(-1, 1, -1, 1))
        ctx.clear()
        ctx.bind_texture(_checker_texture(32), filter_mode=TexFilter.TRILINEAR,
                         wrap=TexWrap.REPEAT, mipmaps=mipmaps)
        ctx.draw(_textured_quad(uv_scale=8.0))
        return ctx.framebuffer.color.copy()

    assert not np.array_equal(render(True), render(False))
