"""The texture unit (Figure 5).

One texture unit serves a whole core.  For every ``tex`` instruction the
unit receives the per-thread ``(u, v, lod)`` operands, runs the address
generator for each active thread, de-duplicates the texel addresses across
the wavefront (stage 2 of the figure), fetches the unique texels, and runs
the two-cycle bilinear sampler to produce one RGBA8 color per thread.

The functional result and the memory-access trace are computed together so
the cycle-level driver can charge the de-duplicated cache traffic and the
sampler latency to the same instruction the functional driver executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.common.bitutils import bits_to_float
from repro.common.config import TextureConfig
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, Stateful
from repro.texture.formats import TexFilter, pack_rgba8
from repro.texture.sampler import TextureSampler, TextureState, blend_quad, lerp_color


@dataclass
class TexWarpResult:
    """The outcome of one warp-level ``tex`` operation."""

    colors: list[int]
    unique_addresses: list[int]
    total_addresses: int

    @property
    def dedup_savings(self) -> int:
        """Memory accesses avoided by the de-duplication stage."""
        return self.total_addresses - len(self.unique_addresses)


class TextureUnit(Stateful):
    """Per-core texture unit: address generation, dedup, sampling."""

    #: The payload is the counter dict.
    STATE = {"perf": CHILD._replace(key="")}

    def __init__(self, memory, config: TextureConfig | None = None):
        self.config = config or TextureConfig()
        self.sampler = TextureSampler(memory)
        self.perf = PerfCounters("tex_unit")
        # Per-stage snapshot cache, invalidated by the CSR file's texture
        # dirty counter: (csr_file, tex_epoch, state).
        self._state_cache: dict[int, tuple[object, int, TextureState]] = {}

    def state_for(self, csr_file, stage: int) -> TextureState:
        """Snapshot the CSR-programmed state of ``stage``.

        The snapshot (a dozen CSR reads per ``tex`` instruction) is cached
        against the CSR file's texture dirty counter
        (:attr:`~repro.arch.csr.CsrFile.tex_epoch`), so back-to-back ``tex``
        instructions re-read the block only after a texture CSR write.
        """
        epoch = getattr(csr_file, "tex_epoch", None)
        if epoch is None:
            return TextureState.from_csrs(csr_file, stage)
        cached = self._state_cache.get(stage)
        if cached is not None and cached[0] is csr_file and cached[1] == epoch:
            return cached[2]
        state = TextureState.from_csrs(csr_file, stage)
        self._state_cache[stage] = (csr_file, epoch, state)
        return state

    def after_restore(self) -> None:
        """Drop the cached CSR snapshots: the restored CSR file may carry the
        *same* ``tex_epoch`` value as the cached entries while holding
        different texture state, so the epoch check alone cannot see it."""
        self._state_cache.clear()

    def sample_warp(
        self,
        csr_file,
        stage: int,
        operands: Sequence[tuple[int, int, int] | None],
    ) -> TexWarpResult:
        """Execute one warp-level ``tex`` instruction.

        ``operands`` holds, per thread, either ``None`` (inactive thread) or
        the raw register bits of ``(u, v, lod)``.
        """
        state = self.state_for(csr_file, stage)
        trilinear = state.filter_mode == TexFilter.TRILINEAR
        colors: list[int] = []
        unique: dict[int, None] = {}
        total = 0

        def filter_level(u: float, v: float, lod: int):
            nonlocal total
            quad = self.sampler.quad_for(state, u, v, lod)
            for address in quad.addresses:
                total += 1
                unique.setdefault(address, None)
            texels = [self.sampler.read_texel(state, address) for address in quad.addresses]
            return blend_quad(texels, quad.blend_u, quad.blend_v)

        for thread_operands in operands:
            if thread_operands is None:
                colors.append(0)
                continue
            u_bits, v_bits, lod_bits = thread_operands
            u = bits_to_float(u_bits)
            v = bits_to_float(v_bits)
            if trilinear:
                lod_f = _float_lod_from_bits(lod_bits, state.max_lod)
                level0, level1, frac = state.trilinear_levels(lod_f)
                color = filter_level(u, v, level0)
                if level1 != level0:
                    color = lerp_color(color, filter_level(u, v, level1), frac)
            else:
                lod = state.clamp_lod(_lod_from_bits(lod_bits, state.max_lod))
                color = filter_level(u, v, lod)
            colors.append(pack_rgba8(color))
        self.perf.incr("requests")
        self.perf.incr("texel_fetches", total)
        self.perf.incr("unique_fetches", len(unique))
        return TexWarpResult(
            colors=colors, unique_addresses=list(unique), total_addresses=total
        )

    def sample_warp_vector(
        self,
        csr_file,
        stage: int,
        u_bits: np.ndarray,
        v_bits: np.ndarray,
        lod_bits: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`sample_warp` over the active lanes of a warp.

        The operands are uint32 arrays of raw register bits (one entry per
        active lane).  Returns one packed RGBA8 word per lane, bit-identical
        to the scalar warp path, and charges the same perf counters
        (requests, total and de-duplicated texel fetches).
        """
        state = self.state_for(csr_file, stage)
        self.perf.incr("requests")
        if int(u_bits.shape[0]) == 0:
            return np.empty(0, dtype=np.uint32)
        u, v, lods = self._warp_coordinates(state, u_bits, v_bits, lod_bits)
        colors, addresses = self.sampler.sample_many(
            state, u, v, lods, with_addresses=True
        )
        self.perf.incr("texel_fetches", int(addresses.shape[0]))
        self.perf.incr("unique_fetches", int(np.unique(addresses).shape[0]))
        return colors

    @staticmethod
    def _warp_coordinates(
        state: TextureState,
        u_bits: np.ndarray,
        v_bits: np.ndarray,
        lod_bits: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Convert raw register lane vectors into sampler operands.

        One place owns the bit-view/float64 conversion and the
        trilinear-vs-integer LOD interpretation so the plain warp sampler
        and the traced timing variant cannot drift apart.
        """
        u = np.ascontiguousarray(u_bits).view(np.float32).astype(np.float64)
        v = np.ascontiguousarray(v_bits).view(np.float32).astype(np.float64)
        if state.filter_mode == TexFilter.TRILINEAR:
            lods = _float_lods_from_bits_many(np.ascontiguousarray(lod_bits), state)
        else:
            lods = _lods_from_bits_many(np.ascontiguousarray(lod_bits), state)
        return u, v, lods

    def sample_warp_vector_trace(
        self,
        csr_file,
        stage: int,
        u_bits: np.ndarray,
        v_bits: np.ndarray,
        lod_bits: np.ndarray,
    ) -> tuple[np.ndarray, list[int]]:
        """:meth:`sample_warp_vector` plus the de-duplicated address trace.

        Returns ``(colors, unique_addresses)`` where ``unique_addresses``
        lists each distinct texel address in first-seen order under the
        scalar warp traversal (thread-major, fine level before coarse) —
        exactly the trace :meth:`sample_warp` hands the cycle-level core, so
        the vectorized timing path charges an identical cache request
        sequence.
        """
        state = self.state_for(csr_file, stage)
        self.perf.incr("requests")
        if int(u_bits.shape[0]) == 0:
            return np.empty(0, dtype=np.uint32), []
        u, v, lods = self._warp_coordinates(state, u_bits, v_bits, lod_bits)
        colors, lane_addresses = self.sampler.sample_many(
            state, u, v, lods, with_lane_addresses=True
        )
        flat = lane_addresses.ravel()
        flat = flat[flat >= 0]
        unique = list(dict.fromkeys(flat.tolist()))
        self.perf.incr("texel_fetches", int(flat.shape[0]))
        self.perf.incr("unique_fetches", len(unique))
        return colors, unique

    def issue_latency(self, num_unique_addresses: int) -> int:
        """Fixed (non-cache) latency charged to one ``tex`` instruction.

        The cycle-level core adds the data-cache access time of the unique
        texel addresses on top of this value.
        """
        return self.config.address_latency + self.config.sampler_latency


def _lod_from_bits(lod_bits: int, max_lod: int) -> int:
    """Interpret the ``lod`` operand register.

    The operand is a float in register bits (the graphics kernels pass the
    level of detail as a float); integer levels are also tolerated for
    robustness since the kernel ABI stores small integers for mip levels.
    """
    value = bits_to_float(lod_bits)
    if not (value == value):  # NaN
        return 0
    if value >= 0.0 and (lod_bits >> 23) != 0:
        # A non-zero exponent field means real float bits (small-integer
        # bit patterns all have a zero exponent); oversized levels clamp
        # to the coarsest mip, as the hardware does.
        lod = int(min(value, float(max_lod)))
    else:
        # The bits do not look like a sensible float; treat them as an integer.
        lod = lod_bits if lod_bits <= max_lod else 0
    return min(max(lod, 0), max_lod)


def _float_lod_from_bits(lod_bits: int, max_lod: int) -> float:
    """Interpret the ``lod`` operand register, keeping the fraction.

    The trilinear filter consumes fractional levels of detail, so the float
    interpretation preserves the mantissa instead of truncating; the
    integer-bits fallback of :func:`_lod_from_bits` is kept for kernels
    that store small integers.
    """
    value = bits_to_float(lod_bits)
    if not (value == value):  # NaN
        return 0.0
    if value >= 0.0 and (lod_bits >> 23) != 0:
        return value  # oversized/infinite levels clamp downstream
    return float(lod_bits) if lod_bits <= max_lod else 0.0


def _float_lods_from_bits_many(lod_bits: np.ndarray, state: TextureState) -> np.ndarray:
    """Vectorized ``clamp_lod_float(_float_lod_from_bits(bits))`` over a lane vector."""
    max_lod = state.max_lod
    value = lod_bits.view(np.float32).astype(np.float64)
    floatish = (value >= 0.0) & ((lod_bits >> np.uint32(23)) != 0)
    as_float = np.where(floatish, value, 0.0)
    # NaN lanes fail the >= comparison and fall through to the integer
    # branch, where every NaN bit pattern exceeds max_lod and resolves to
    # 0.0 — same as the scalar path.
    as_int = np.where(lod_bits <= max_lod, lod_bits.astype(np.float64), 0.0)
    lods = np.where(floatish, as_float, as_int)
    return np.clip(lods, 0.0, float(state.max_addressable_lod))


def _lods_from_bits_many(lod_bits: np.ndarray, state: TextureState) -> np.ndarray:
    """Vectorized ``clamp_lod(_lod_from_bits(bits, max_lod))`` over a lane vector."""
    max_lod = state.max_lod
    value = lod_bits.view(np.float32).astype(np.float64)
    floatish = (value >= 0.0) & ((lod_bits >> np.uint32(23)) != 0)
    capped = np.minimum(np.where(floatish, value, 0.0), float(max_lod))
    as_float = np.trunc(capped).astype(np.int64)
    # NaN lanes fall through to the integer branch, where every NaN bit
    # pattern exceeds max_lod and resolves to 0 — same as the scalar path.
    as_int = np.where(lod_bits <= max_lod, lod_bits.astype(np.int64), 0)
    lods = np.where(floatish, as_float, as_int)
    return np.clip(lods, 0, state.max_addressable_lod)
