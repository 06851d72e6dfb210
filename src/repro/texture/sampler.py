"""The texel sampler (stage 5 of Figure 5) and the texture state block.

The sampler performs the format conversion and the bilinear interpolation
of the four fetched texels.  Point sampling is executed through the same
bilinear datapath with zero blend factors, exactly as the paper describes
(section 4.2.2) — the hardware saves the mux and variable-latency handling
a dedicated single-cycle point path would need.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.texture.address import (
    BLEND_FRAC_BITS,
    BLEND_ONE,
    TexelQuad,
    generate_addresses,
    generate_addresses_many,
    lod_fraction,
)
from repro.texture.formats import (
    RGBA,
    TexFilter,
    TexFormat,
    TexWrap,
    decode_texel,
    decode_texels,
    pack_rgba8,
    pack_rgba8_many,
    texel_size,
)
from repro.isa.csr import NUM_TEX_LODS, TexCSR, tex_csr


@dataclass
class TextureState:
    """The CSR-programmed state of one texture stage."""

    address: int = 0
    width_log2: int = 0
    height_log2: int = 0
    fmt: TexFormat = TexFormat.RGBA8
    wrap: TexWrap = TexWrap.CLAMP
    filter_mode: TexFilter = TexFilter.BILINEAR
    mip_offsets: Sequence[int] = ()

    @classmethod
    def from_csrs(cls, csr_file, stage: int) -> TextureState:
        """Build the state block for ``stage`` from a :class:`CsrFile`."""
        mip_offsets = [
            csr_file.raw(tex_csr(stage, TexCSR.MIPOFF, lod)) for lod in range(NUM_TEX_LODS)
        ]
        return cls(
            address=csr_file.raw(tex_csr(stage, TexCSR.ADDR)),
            width_log2=csr_file.raw(tex_csr(stage, TexCSR.WIDTH)),
            height_log2=csr_file.raw(tex_csr(stage, TexCSR.HEIGHT)),
            fmt=TexFormat(csr_file.raw(tex_csr(stage, TexCSR.FORMAT))),
            wrap=TexWrap(csr_file.raw(tex_csr(stage, TexCSR.WRAP))),
            filter_mode=TexFilter(csr_file.raw(tex_csr(stage, TexCSR.FILTER))),
            mip_offsets=mip_offsets,
        )

    def mip_base(self, lod: int) -> int:
        """Byte address of mip level ``lod``."""
        if 0 <= lod < len(self.mip_offsets):
            return self.address + self.mip_offsets[lod]
        return self.address

    @property
    def max_lod(self) -> int:
        """The coarsest mip level of the base dimensions."""
        return max(self.width_log2, self.height_log2)

    @property
    def max_addressable_lod(self) -> int:
        """The coarsest level with a valid MIPOFF entry.

        ``max_lod`` only bounds the geometric pyramid; the state block can
        describe at most ``NUM_TEX_LODS`` (and however many ``mip_offsets``
        were actually programmed) base addresses.  Sampling past that would
        pair mip-level dimensions with the level-0 base address.
        """
        return max(min(self.max_lod, NUM_TEX_LODS - 1, len(self.mip_offsets) - 1), 0)

    def clamp_lod(self, lod: int) -> int:
        """Clamp a requested level of detail to the addressable range."""
        if lod != lod:  # NaN floats select the base level
            lod = 0
        return min(max(int(lod), 0), self.max_addressable_lod)

    def clamp_lod_float(self, lod: float) -> float:
        """Clamp a fractional level of detail to the addressable range."""
        lod = float(lod)
        if lod != lod:  # NaN
            lod = 0.0
        return min(max(lod, 0.0), float(self.max_addressable_lod))

    def trilinear_levels(self, lod: float) -> tuple[int, int, int]:
        """Resolve a fractional LOD into ``(level0, level1, blend_frac)``.

        ``level0`` is the finer mip level, ``level1`` the adjacent coarser
        one (clamped so the pair never leaves the addressable range) and
        ``blend_frac`` the 8-bit fixed-point interpolation weight toward
        ``level1``.
        """
        lod_f = self.clamp_lod_float(lod)
        level0 = int(lod_f)
        level1 = min(level0 + 1, self.max_addressable_lod)
        return level0, level1, lod_fraction(lod_f, level0)


def _lerp(a: int, b: int, frac: int) -> int:
    """Fixed-point linear interpolation on one 8-bit channel."""
    return (a * (BLEND_ONE - frac) + b * frac) >> BLEND_FRAC_BITS


def lerp_color(fine: RGBA, coarse: RGBA, frac: int) -> RGBA:
    """Fixed-point lerp of two RGBA tuples (the trilinear mip blend)."""
    return tuple(_lerp(fine[c], coarse[c], frac) for c in range(4))


def blend_quad(texels: Sequence[RGBA], blend_u: int, blend_v: int) -> RGBA:
    """Bilinearly blend a 2x2 quad of RGBA texels."""
    top = tuple(_lerp(texels[0][c], texels[1][c], blend_u) for c in range(4))
    bottom = tuple(_lerp(texels[2][c], texels[3][c], blend_u) for c in range(4))
    return tuple(_lerp(top[c], bottom[c], blend_v) for c in range(4))


def blend_quads(texels: np.ndarray, blend_u: np.ndarray, blend_v: np.ndarray) -> np.ndarray:
    """Vectorized :func:`blend_quad` over ``(N, 4 texels, 4 channels)`` quads.

    Pure fixed-point integer arithmetic (the intermediate products peak at
    255 * 256, well inside uint32), so the result is bit-identical to the
    scalar blend.
    """
    bu = blend_u.astype(np.uint32)[:, None]
    bv = blend_v.astype(np.uint32)[:, None]
    one = np.uint32(BLEND_ONE)
    shift = np.uint32(BLEND_FRAC_BITS)
    top = (texels[:, 0] * (one - bu) + texels[:, 1] * bu) >> shift
    bottom = (texels[:, 2] * (one - bu) + texels[:, 3] * bu) >> shift
    return (top * (one - bv) + bottom * bv) >> shift


class TextureSampler:
    """Functional model of the texel sampler."""

    def __init__(self, memory):
        self.memory = memory

    def read_texel(self, state: TextureState, address: int) -> RGBA:
        """Fetch and format-convert one texel."""
        size = texel_size(state.fmt)
        raw_bytes = self.memory.read_bytes(address, size)
        raw = int.from_bytes(raw_bytes, "little")
        return decode_texel(state.fmt, raw)

    def sample(self, state: TextureState, u: float, v: float, lod: float = 0.0) -> int:
        """Sample the texture at normalized ``(u, v)`` at level of detail ``lod``.

        ``lod`` may be fractional; the point and bilinear filters truncate
        it to one mip level, the trilinear filter blends the two adjacent
        levels with the 8-bit fixed-point fraction.  Returns the packed
        RGBA8 word the ``tex`` instruction writes to its destination
        register.
        """
        if state.filter_mode == TexFilter.TRILINEAR:
            level0, level1, frac = state.trilinear_levels(lod)
            fine = self.level_color(state, u, v, level0)
            if level1 == level0:
                # LOD pinned at the coarsest level: the blend fraction is
                # provably zero, so the second fetch is skipped.
                return pack_rgba8(fine)
            coarse = self.level_color(state, u, v, level1)
            return pack_rgba8(lerp_color(fine, coarse, frac))
        color = self.level_color(state, u, v, state.clamp_lod(lod))
        return pack_rgba8(color)

    def level_color(self, state: TextureState, u: float, v: float, lod: int) -> RGBA:
        """Filter one mip level into an (r, g, b, a) byte tuple."""
        quad = self.quad_for(state, u, v, lod)
        texels = [self.read_texel(state, address) for address in quad.addresses]
        return blend_quad(texels, quad.blend_u, quad.blend_v)

    def quad_for(self, state: TextureState, u: float, v: float, lod: int) -> TexelQuad:
        """Generate the texel quad for one sample (shared with the timing unit)."""
        return generate_addresses(
            u=u,
            v=v,
            base=state.mip_base(lod),
            width_log2=state.width_log2,
            height_log2=state.height_log2,
            fmt=state.fmt,
            wrap=state.wrap,
            filter_mode=state.filter_mode,
            lod=lod,
        )

    # -- batched sampling (vectorized fast path) ---------------------------------------

    def sample_many(
        self,
        state: TextureState,
        u,
        v,
        lod=0,
        with_lane_addresses: bool = False,
    ):
        """Batched :meth:`sample`: one packed RGBA8 word per ``(u, v, lod)``.

        ``u`` and ``v`` are float64 arrays; ``lod`` is a scalar or an int or
        float array broadcast against them (fractional LODs drive the
        trilinear filter).  The whole batch — address planes, texel gather,
        format decode, fixed-point blends — executes as numpy array
        operations, and every word is bit-identical to the scalar
        :meth:`sample` of the same coordinates.

        With ``with_lane_addresses`` the return value is ``(colors, lanes)``
        where ``lanes`` is an int64 array of shape ``(N, 4)`` (point and
        bilinear) or ``(N, 8)`` (trilinear: the fine level's quad followed by
        the coarse level's quad, ``-1`` where the second fetch was skipped).
        Row ``i`` lists sample ``i``'s texel addresses in exactly the order
        the scalar warp path generates them, which is what the cycle-level
        texture timing path de-duplicates into its cache request trace.
        """
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        count = u.shape[0]
        out = np.empty(count, dtype=np.uint32)
        lane_addresses = None
        if count:
            if state.filter_mode == TexFilter.TRILINEAR:
                lods = np.broadcast_to(np.asarray(lod, dtype=np.float64), (count,))
                lods = np.where(np.isnan(lods), 0.0, lods)
                lods = np.clip(lods, 0.0, float(state.max_addressable_lod))
                # lods >= 0, so astype truncation == int() == floor.
                level0 = lods.astype(np.int64)
                level1 = np.minimum(level0 + 1, state.max_addressable_lod)
                frac = ((lods - level0) * BLEND_ONE).astype(np.int64) & (BLEND_ONE - 1)
                fine_out = (
                    np.empty((count, 4), dtype=np.int64) if with_lane_addresses else None
                )
                fine = self.level_channels_many(state, u, v, level0, address_out=fine_out)
                # Lanes whose LOD is pinned at the coarsest level have a
                # zero blend fraction: skip their second fetch entirely
                # (same early-out, and the same fetch counts, as the
                # scalar path).
                blend = level1 != level0
                coarse_out = (
                    np.full((count, 4), -1, dtype=np.int64) if with_lane_addresses else None
                )
                if blend.any():
                    blend_addresses = (
                        np.empty((int(np.count_nonzero(blend)), 4), dtype=np.int64)
                        if with_lane_addresses
                        else None
                    )
                    coarse = self.level_channels_many(
                        state, u[blend], v[blend], level1[blend], address_out=blend_addresses
                    )
                    if coarse_out is not None:
                        coarse_out[blend] = blend_addresses
                    weight = frac[blend].astype(np.uint32)[:, None]
                    one = np.uint32(BLEND_ONE)
                    shift = np.uint32(BLEND_FRAC_BITS)
                    fine[blend] = (fine[blend] * (one - weight) + coarse * weight) >> shift
                if with_lane_addresses:
                    lane_addresses = np.concatenate([fine_out, coarse_out], axis=1)
                out[:] = pack_rgba8_many(fine)
            else:
                lods = np.broadcast_to(np.asarray(lod), (count,))
                if lods.dtype.kind == "f":
                    lods = np.where(np.isnan(lods), 0.0, lods)
                    lods = np.clip(lods, 0.0, float(state.max_addressable_lod))
                    lods = lods.astype(np.int64)
                else:
                    lods = np.clip(lods.astype(np.int64), 0, state.max_addressable_lod)
                if with_lane_addresses:
                    lane_addresses = np.empty((count, 4), dtype=np.int64)
                channels = self.level_channels_many(
                    state, u, v, lods, address_out=lane_addresses
                )
                out[:] = pack_rgba8_many(channels)
        if with_lane_addresses:
            if lane_addresses is None:
                lane_addresses = np.empty((0, 4), dtype=np.int64)
            return out, lane_addresses
        return out

    def level_channels_many(
        self,
        state: TextureState,
        u: np.ndarray,
        v: np.ndarray,
        levels: np.ndarray,
        address_out=None,
    ) -> np.ndarray:
        """Filter each sample's mip level into ``(N, 4)`` byte channels.

        ``levels`` is a clamped int64 level per sample; the batch is grouped
        by unique level so each level runs one vectorized address-gen /
        gather / decode / blend pass.  When ``address_out`` is an ``(N, 4)``
        int64 array, each sample's quad addresses are scattered into its row
        (sample-major order).
        """
        out = np.empty((u.shape[0], 4), dtype=np.uint32)
        for level in np.unique(levels):
            selected = levels == level
            addresses, blend_u, blend_v = generate_addresses_many(
                u[selected],
                v[selected],
                base=state.mip_base(int(level)),
                width_log2=state.width_log2,
                height_log2=state.height_log2,
                fmt=state.fmt,
                wrap=state.wrap,
                filter_mode=state.filter_mode,
                lod=int(level),
            )
            texels = self.read_texels_many(state, addresses)
            out[selected] = blend_quads(texels, blend_u, blend_v)
            if address_out is not None:
                address_out[selected] = addresses
        return out

    def read_texels_many(self, state: TextureState, addresses: np.ndarray) -> np.ndarray:
        """Fetch and decode an ``(N, 4)`` quad-address plane into
        ``(N, 4 texels, 4 channels)`` byte channels."""
        size = texel_size(state.fmt)
        flat = (addresses & np.int64(0xFFFFFFFF)).astype(np.uint32).ravel()
        if size == 4 and not (int(np.bitwise_or.reduce(flat)) & 3):
            raw = self.memory.gather_words(flat)
        elif size == 2 and not (int(np.bitwise_or.reduce(flat)) & 1):
            raw = self.memory.gather_halves(flat)
        elif size == 1:
            raw = self.memory.gather_bytes(flat)
        else:
            # Unaligned texture base: byte-assemble like the scalar path.
            raw = np.empty(flat.shape[0], dtype=np.uint32)
            for index, address in enumerate(flat):
                raw_bytes = self.memory.read_bytes(int(address), size)
                raw[index] = int.from_bytes(raw_bytes, "little")
        return decode_texels(state.fmt, raw).reshape(addresses.shape[0], 4, 4)
