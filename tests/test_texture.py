"""Tests for texture formats, address generation, sampling and the texture unit."""

import numpy as np
from hypothesis import given, strategies as st

from repro.arch.csr import CsrFile
from repro.common.bitutils import float_to_bits
from repro.isa.csr import TexCSR, tex_csr
from repro.mem.memory import MainMemory
from repro.texture.address import BLEND_ONE, generate_addresses, mip_dimensions, wrap_coordinate
from repro.texture.formats import (
    TexFilter,
    TexFormat,
    TexWrap,
    decode_texel,
    encode_texel,
    pack_rgba8,
    texel_size,
    unpack_rgba8,
)
from repro.texture.sampler import TextureSampler, TextureState, blend_quad
from repro.texture.unit import TextureUnit

rgba = st.tuples(*[st.integers(min_value=0, max_value=255)] * 4)


# -- formats ---------------------------------------------------------------------------


@given(rgba)
def test_rgba8_roundtrip(color):
    assert decode_texel(TexFormat.RGBA8, encode_texel(TexFormat.RGBA8, color)) == color
    assert unpack_rgba8(pack_rgba8(color)) == color


@given(rgba)
def test_lossy_formats_preserve_top_bits(color):
    decoded = decode_texel(TexFormat.RGB565, encode_texel(TexFormat.RGB565, color))
    assert abs(decoded[0] - color[0]) <= 8
    assert abs(decoded[1] - color[1]) <= 4
    assert abs(decoded[2] - color[2]) <= 8
    assert decoded[3] == 255
    decoded4 = decode_texel(TexFormat.RGBA4, encode_texel(TexFormat.RGBA4, color))
    assert all(abs(decoded4[i] - color[i]) <= 16 for i in range(4))


def test_r8_and_l8a8_formats():
    assert decode_texel(TexFormat.R8, 0x7F) == (0x7F, 0x7F, 0x7F, 0xFF)
    assert decode_texel(TexFormat.L8A8, 0x80FF) == (0xFF, 0xFF, 0xFF, 0x80)
    assert texel_size(TexFormat.RGBA8) == 4
    assert texel_size(TexFormat.R8) == 1
    assert texel_size(TexFormat.RGB565) == 2


# -- address generation -----------------------------------------------------------------


def test_wrap_modes():
    assert wrap_coordinate(-1, 8, TexWrap.CLAMP) == 0
    assert wrap_coordinate(9, 8, TexWrap.CLAMP) == 7
    assert wrap_coordinate(9, 8, TexWrap.REPEAT) == 1
    assert wrap_coordinate(-1, 8, TexWrap.REPEAT) == 7
    assert wrap_coordinate(8, 8, TexWrap.MIRROR) == 7
    assert wrap_coordinate(9, 8, TexWrap.MIRROR) == 6


def test_mip_dimensions_clamp_at_one():
    assert mip_dimensions(5, 4, 0) == (32, 16)
    assert mip_dimensions(5, 4, 3) == (4, 2)
    assert mip_dimensions(5, 4, 10) == (1, 1)


def test_point_sampling_address():
    quad = generate_addresses(
        u=0.5, v=0.25, base=0x1000, width_log2=3, height_log2=3,
        fmt=TexFormat.RGBA8, wrap=TexWrap.CLAMP, filter_mode=TexFilter.POINT,
    )
    # (u, v) = (0.5, 0.25) on an 8x8 texture is texel (4, 2).
    assert quad.addresses[0] == 0x1000 + (2 * 8 + 4) * 4
    assert quad.blend_u == 0 and quad.blend_v == 0
    assert quad.unique_addresses == [quad.addresses[0]]


def test_bilinear_quad_and_blend_factors():
    quad = generate_addresses(
        u=0.5, v=0.5, base=0, width_log2=2, height_log2=2,
        fmt=TexFormat.RGBA8, wrap=TexWrap.CLAMP, filter_mode=TexFilter.BILINEAR,
    )
    # Texel centre between (1,1) and (2,2) with half-way blends.
    assert len(set(quad.addresses)) == 4
    assert quad.blend_u == BLEND_ONE // 2
    assert quad.blend_v == BLEND_ONE // 2


def test_bilinear_clamps_at_border():
    quad = generate_addresses(
        u=0.999, v=0.001, base=0, width_log2=2, height_log2=2,
        fmt=TexFormat.RGBA8, wrap=TexWrap.CLAMP, filter_mode=TexFilter.BILINEAR,
    )
    assert len(quad.unique_addresses) <= 2  # x clamped to the last column


# -- sampler ----------------------------------------------------------------------------


def _checkerboard_memory(width=8, height=8):
    memory = MainMemory()
    image = np.zeros((height, width), dtype=np.uint32)
    image[::2, ::2] = pack_rgba8((255, 255, 255, 255))
    image[1::2, 1::2] = pack_rgba8((255, 255, 255, 255))
    memory.write_bytes(0x2000, image.astype("<u4").tobytes())
    return memory, image


def _state(width=8, height=8, filter_mode=TexFilter.BILINEAR):
    return TextureState(
        address=0x2000,
        width_log2=width.bit_length() - 1,
        height_log2=height.bit_length() - 1,
        fmt=TexFormat.RGBA8,
        wrap=TexWrap.CLAMP,
        filter_mode=filter_mode,
        mip_offsets=[0] * 12,
    )


def test_point_sampling_returns_exact_texel():
    memory, image = _checkerboard_memory()
    sampler = TextureSampler(memory)
    state = _state(filter_mode=TexFilter.POINT)
    color = sampler.sample(state, u=(2 + 0.5) / 8, v=(4 + 0.5) / 8, lod=0)
    assert color == int(image[4, 2])


def test_bilinear_between_black_and_white_is_gray():
    memory = MainMemory()
    white = pack_rgba8((255, 255, 255, 255))
    memory.load_words(0x3000, [0, white, 0, white])  # 2x2 texture rows: (0, w), (0, w)
    state = TextureState(
        address=0x3000, width_log2=1, height_log2=1,
        fmt=TexFormat.RGBA8, wrap=TexWrap.CLAMP, filter_mode=TexFilter.BILINEAR,
        mip_offsets=[0] * 12,
    )
    sampler = TextureSampler(memory)
    color = sampler.sample(state, u=0.5, v=0.5, lod=0)
    r, g, b, a = unpack_rgba8(color)
    assert abs(r - 127) <= 1 and abs(g - 127) <= 1 and abs(b - 127) <= 1


def test_blend_quad_weights():
    texels = [(0, 0, 0, 0), (255, 255, 255, 255), (0, 0, 0, 0), (255, 255, 255, 255)]
    color = blend_quad(texels, blend_u=BLEND_ONE // 2, blend_v=0)
    assert abs(color[0] - 127) <= 1
    color_full = blend_quad(texels, blend_u=BLEND_ONE - 1, blend_v=0)
    assert color_full[0] >= 253


def test_state_from_csrs_roundtrip():
    csr = CsrFile(core_id=0, num_warps=4, num_threads=4, num_cores=1)
    csr.write(tex_csr(0, TexCSR.ADDR), 0x1234)
    csr.write(tex_csr(0, TexCSR.WIDTH), 5)
    csr.write(tex_csr(0, TexCSR.HEIGHT), 6)
    csr.write(tex_csr(0, TexCSR.FORMAT), int(TexFormat.RGB565))
    csr.write(tex_csr(0, TexCSR.WRAP), int(TexWrap.REPEAT))
    csr.write(tex_csr(0, TexCSR.FILTER), int(TexFilter.POINT))
    csr.write(tex_csr(0, TexCSR.MIPOFF, 1), 0x400)
    state = TextureState.from_csrs(csr, 0)
    assert state.address == 0x1234
    assert (state.width_log2, state.height_log2) == (5, 6)
    assert state.fmt == TexFormat.RGB565
    assert state.wrap == TexWrap.REPEAT
    assert state.filter_mode == TexFilter.POINT
    assert state.mip_base(1) == 0x1234 + 0x400
    assert state.max_lod == 6


def _mipmapped_memory():
    """An 8x8 red mip 0 and a 4x4 green mip 1 at a programmed offset."""
    memory = MainMemory()
    red = pack_rgba8((255, 0, 0, 255))
    green = pack_rgba8((0, 255, 0, 255))
    mip0 = np.full(8 * 8, red, dtype="<u4")
    mip1 = np.full(4 * 4, green, dtype="<u4")
    base, mip1_offset = 0x4000, 8 * 8 * 4
    memory.write_bytes(base, mip0.tobytes() + mip1.tobytes())
    state = TextureState(
        address=base, width_log2=3, height_log2=3,
        fmt=TexFormat.RGBA8, wrap=TexWrap.CLAMP, filter_mode=TexFilter.BILINEAR,
        mip_offsets=[0, mip1_offset],  # only two levels programmed
    )
    return memory, state, red, green


def test_mipmapped_sampling_uses_the_programmed_offset():
    memory, state, red, green = _mipmapped_memory()
    sampler = TextureSampler(memory)
    assert sampler.sample(state, 0.5, 0.5, 0) == red
    assert sampler.sample(state, 0.5, 0.5, 1) == green


def test_lod_clamps_to_programmed_mip_offsets():
    """``max_lod`` (3 for 8x8) exceeds the two programmed MIPOFF entries; the
    sampler must clamp to the last addressable level instead of pairing
    mip-level dimensions with the level-0 base address."""
    memory, state, _, green = _mipmapped_memory()
    sampler = TextureSampler(memory)
    assert state.max_lod == 3
    assert state.max_addressable_lod == 1
    for lod in (2, 3, 99):
        assert sampler.sample(state, 0.5, 0.5, lod) == green
        assert state.clamp_lod(lod) == 1
    # The batched sampler applies the same clamp.
    colors = sampler.sample_many(state, np.array([0.5]), np.array([0.5]), np.array([3]))
    assert int(colors[0]) == green


def test_sample_many_matches_scalar_sampler():
    """The batched sampler is bit-identical to the scalar one across
    formats, wrap modes, filters and mip levels."""
    rng = np.random.default_rng(11)
    for fmt in TexFormat:
        memory = MainMemory()
        base = 0x8000
        texels = 8 * 8 + 4 * 4
        memory.write_bytes(base, rng.integers(0, 256, texels * 4, dtype=np.uint8).tobytes())
        for wrap in TexWrap:
            for filter_mode in TexFilter:
                state = TextureState(
                    address=base, width_log2=3, height_log2=3, fmt=fmt,
                    wrap=wrap, filter_mode=filter_mode,
                    mip_offsets=[0, 8 * 8 * 4],
                )
                sampler = TextureSampler(memory)
                us = rng.uniform(-2.5, 3.5, size=64)
                vs = rng.uniform(-2.5, 3.5, size=64)
                lods = rng.integers(0, 4, size=64)
                expected = np.array(
                    [sampler.sample(state, u, v, lod) for u, v, lod in zip(us, vs, lods)],
                    dtype=np.uint32,
                )
                got = sampler.sample_many(state, us, vs, lods)
                assert np.array_equal(got, expected), (fmt, wrap, filter_mode)


def test_sample_many_zeroes_non_finite_coordinates():
    memory, state, red, _ = _mipmapped_memory()
    sampler = TextureSampler(memory)
    us = np.array([np.nan, np.inf, 0.5])
    vs = np.array([0.5, -np.inf, np.nan])
    expected = np.array(
        [sampler.sample(state, u, v, 0) for u, v in zip(us, vs)], dtype=np.uint32
    )
    assert np.array_equal(sampler.sample_many(state, us, vs, 0), expected)


# -- texture unit ---------------------------------------------------------------------------


def _configured_unit():
    memory, image = _checkerboard_memory()
    csr = CsrFile(core_id=0, num_warps=4, num_threads=4, num_cores=1)
    csr.write(tex_csr(0, TexCSR.ADDR), 0x2000)
    csr.write(tex_csr(0, TexCSR.WIDTH), 3)
    csr.write(tex_csr(0, TexCSR.HEIGHT), 3)
    csr.write(tex_csr(0, TexCSR.FORMAT), int(TexFormat.RGBA8))
    csr.write(tex_csr(0, TexCSR.WRAP), int(TexWrap.CLAMP))
    csr.write(tex_csr(0, TexCSR.FILTER), int(TexFilter.BILINEAR))
    return TextureUnit(memory), csr, image


def test_texture_unit_dedups_across_threads():
    unit, csr, _ = _configured_unit()
    # All four threads sample the same coordinate -> one unique quad.
    operand = (float_to_bits(0.5), float_to_bits(0.5), 0)
    result = unit.sample_warp(csr, 0, [operand] * 4)
    assert result.total_addresses == 16
    assert len(result.unique_addresses) == 4
    assert result.dedup_savings == 12
    assert len(result.colors) == 4
    assert len(set(result.colors)) == 1


def test_texture_unit_skips_inactive_threads():
    unit, csr, _ = _configured_unit()
    operand = (float_to_bits(0.25), float_to_bits(0.25), 0)
    result = unit.sample_warp(csr, 0, [operand, None, operand, None])
    assert result.colors[1] == 0 and result.colors[3] == 0
    assert result.colors[0] == result.colors[2]


def test_texture_unit_issue_latency_positive():
    unit, _, _ = _configured_unit()
    assert unit.issue_latency(4) >= 1


# -- trilinear filtering --------------------------------------------------------------------


def test_trilinear_blends_adjacent_mip_levels():
    memory, state, red, green = _mipmapped_memory()
    state.filter_mode = TexFilter.TRILINEAR
    sampler = TextureSampler(memory)
    assert sampler.sample(state, 0.5, 0.5, 0.0) == red
    assert sampler.sample(state, 0.5, 0.5, 1.0) == green
    half = unpack_rgba8(sampler.sample(state, 0.5, 0.5, 0.5))
    assert abs(half[0] - 127) <= 1 and abs(half[1] - 127) <= 1  # 50/50 red/green
    quarter = unpack_rgba8(sampler.sample(state, 0.5, 0.5, 0.25))
    assert quarter[0] > quarter[1]  # still mostly the finer (red) level


def test_trilinear_fractional_lods_match_scalar_sampler():
    """Fractional, negative, oversized and NaN LODs are bit-identical
    between the scalar and the batched trilinear paths."""
    memory, state, _, _ = _mipmapped_memory()
    state.filter_mode = TexFilter.TRILINEAR
    sampler = TextureSampler(memory)
    rng = np.random.default_rng(13)
    us = rng.uniform(-1.5, 2.5, size=128)
    vs = rng.uniform(-1.5, 2.5, size=128)
    lods = rng.uniform(-1.0, 5.0, size=128)
    lods[::11] = np.nan
    expected = np.array(
        [sampler.sample(state, u, v, lod) for u, v, lod in zip(us, vs, lods)],
        dtype=np.uint32,
    )
    assert np.array_equal(sampler.sample_many(state, us, vs, lods), expected)


def test_trilinear_warp_paths_match_and_count_fetches():
    """sample_warp and sample_warp_vector agree on colors, perf counters and
    the de-duplicated texel address trace (order included: it is the cache
    request sequence the timing core charges).  A bilinear stage fetches
    one quad (4) per thread; a trilinear stage two quads (8), except
    threads whose LOD pins at the coarsest level, which skip the second
    fetch (4) on both paths."""
    rng = np.random.default_rng(21)
    us = rng.uniform(0, 1, 4).astype(np.float32)
    vs = rng.uniform(0, 1, 4).astype(np.float32)
    ls = np.array([0.0, 0.5, 1.0, 5.0], dtype=np.float32)
    operands = [
        (float_to_bits(float(u)), float_to_bits(float(v)), float_to_bits(float(lod)))
        for u, v, lod in zip(us, vs, ls)
    ]
    # Bilinear: one quad each.  Trilinear: lods 0.0/0.5/1.0 blend two levels
    # (8 fetches each); 5.0 clamps to the coarsest level of the 8x8 chain
    # (3) and skips the second quad (4).
    for filter_mode, fetches in (
        (TexFilter.BILINEAR, 4 * 4),
        (TexFilter.TRILINEAR, 8 + 8 + 8 + 4),
    ):
        unit_scalar, csr, _ = _configured_unit()
        memory = unit_scalar.sampler.memory
        unit_vector = TextureUnit(memory)
        csr.write(tex_csr(0, TexCSR.FILTER), int(filter_mode))
        csr.write(tex_csr(0, TexCSR.MIPOFF, 1), 8 * 8 * 4)
        memory.write_bytes(0x2000 + 8 * 8 * 4, bytes(4 * 4 * 4))  # black 4x4 mip 1
        scalar = unit_scalar.sample_warp(csr, 0, operands)
        colors, unique = unit_vector.sample_warp_vector(
            csr, 0, us.view(np.uint32), vs.view(np.uint32), ls.view(np.uint32)
        )
        assert list(colors) == scalar.colors
        assert unique == scalar.unique_addresses
        assert scalar.total_addresses == fetches
        assert unit_vector.perf.get("texel_fetches") == scalar.total_addresses
        assert unit_vector.perf.get("unique_fetches") == len(scalar.unique_addresses)


def test_oversized_float_lods_clamp_to_the_coarsest_level():
    """Float LOD operands far beyond the mip chain must clamp to the
    coarsest level (heavy minification), not snap back to the base level."""
    unit_scalar, csr, _ = _configured_unit()
    memory = unit_scalar.sampler.memory
    unit_vector = TextureUnit(memory)
    # Program the full 8x8 chain; the coarsest (1x1) level is blue.
    blue = pack_rgba8((0, 0, 255, 255))
    offset = 8 * 8 * 4
    for lod, texels in ((1, 4 * 4), (2, 2 * 2), (3, 1 * 1)):
        csr.write(tex_csr(0, TexCSR.MIPOFF, lod), offset)
        memory.write_bytes(0x2000 + offset, np.full(texels, blue, dtype="<u4").tobytes())
        offset += texels * 4
    for filter_csr in (TexFilter.BILINEAR, TexFilter.TRILINEAR):
        csr.write(tex_csr(0, TexCSR.FILTER), int(filter_csr))
        for lod in (100.0, float(np.finfo(np.float32).max), float("inf")):
            operand = (float_to_bits(0.5), float_to_bits(0.5), float_to_bits(lod))
            scalar = unit_scalar.sample_warp(csr, 0, [operand])
            bits = np.array([float_to_bits(0.5)], dtype=np.uint32)
            lod_bits = np.array([float_to_bits(lod)], dtype=np.uint32)
            vector, _ = unit_vector.sample_warp_vector(csr, 0, bits, bits, lod_bits)
            assert scalar.colors[0] == blue, (filter_csr, lod)
            assert int(vector[0]) == blue, (filter_csr, lod)


def test_state_snapshot_cached_until_tex_csr_write():
    """The dirty-bit cache returns the same snapshot object until a texture
    CSR write bumps the epoch; unrelated CSR writes do not invalidate."""
    unit, csr, _ = _configured_unit()
    first = unit.state_for(csr, 0)
    assert unit.state_for(csr, 0) is first
    csr.write(0x800, 123)  # not a texture CSR
    assert unit.state_for(csr, 0) is first
    csr.write(tex_csr(0, TexCSR.WIDTH), 4)
    refreshed = unit.state_for(csr, 0)
    assert refreshed is not first
    assert refreshed.width_log2 == 4


# -- mipmap generation ----------------------------------------------------------------------


@given(
    width_log2=st.integers(min_value=0, max_value=6),
    height_log2=st.integers(min_value=0, max_value=6),
)
def test_generate_mipmaps_halves_down_to_1x1(width_log2, height_log2):
    """The chain halves each dimension (clamped at 1) down to 1x1, and every
    MIPOFF entry equals the byte size of all finer levels."""
    from repro.graphics.pipeline import TextureBinding

    width, height = 1 << width_log2, 1 << height_log2
    rng = np.random.default_rng(width * 64 + height)
    image = rng.integers(0, 256, size=(height, width, 4), dtype=np.uint8)
    binding = TextureBinding(image)
    assert binding.mip_count == 1
    levels = binding.generate_mipmaps()
    assert levels == max(width_log2, height_log2) + 1
    assert binding.mip_count == levels
    offset, w, h = 0, width, height
    for _lod, mipoff in enumerate(binding.state.mip_offsets):
        assert mipoff == offset
        offset += w * h * 4
        w, h = max(w // 2, 1), max(h // 2, 1)
    # The last programmed level is 1x1 and max_addressable_lod spans the chain.
    assert (w, h) == (1, 1) or levels == 1
    assert binding.state.max_addressable_lod == levels - 1


def test_generate_mipmaps_box_filter_averages():
    """A solid 2x2-block checkerboard averages to flat gray one level down."""
    from repro.graphics.pipeline import TextureBinding

    image = np.zeros((4, 4, 4), dtype=np.uint8)
    image[0::2, 0::2] = 255
    image[1::2, 1::2] = 255
    binding = TextureBinding(image, filter_mode=TexFilter.POINT)
    binding.generate_mipmaps()
    word = binding._sampler.sample(binding.state, 0.25, 0.25, 1)
    r, g, b, a = unpack_rgba8(word)
    assert r == g == b == a == 128  # (255 + 255 + 0 + 0 + 2) >> 2
