"""Fragment processing: depth, stencil, alpha and fog tests plus blending.

This is the per-fragment tail of the pipeline (paper section 5.5: "fragment
processing including depth, stencil, fog, and alpha tests"), applied after
the optional texture stage has produced the fragment's color.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.graphics.framebuffer import Framebuffer, pack_colors, unpack_colors
from repro.graphics.raster import FragmentBatch


class CompareFunc(Enum):
    """Comparison functions shared by the depth, alpha and stencil tests."""

    NEVER = "never"
    LESS = "less"
    LEQUAL = "lequal"
    EQUAL = "equal"
    GREATER = "greater"
    GEQUAL = "gequal"
    NOTEQUAL = "notequal"
    ALWAYS = "always"

    def apply_many(self, values: np.ndarray, reference: float) -> np.ndarray:
        """Compare each entry of ``values`` against ``reference``: one bool each."""
        if self is CompareFunc.NEVER:
            return np.zeros(values.shape[0], dtype=bool)
        if self is CompareFunc.ALWAYS:
            return np.ones(values.shape[0], dtype=bool)
        op = _COMPARE_UFUNCS[self]
        return op(values, reference)


#: numpy comparators backing :meth:`CompareFunc.apply_many`.
_COMPARE_UFUNCS = {
    CompareFunc.LESS: np.less,
    CompareFunc.LEQUAL: np.less_equal,
    CompareFunc.EQUAL: np.equal,
    CompareFunc.GREATER: np.greater,
    CompareFunc.GEQUAL: np.greater_equal,
    CompareFunc.NOTEQUAL: np.not_equal,
}


class BlendMode(Enum):
    """Framebuffer blend modes."""

    REPLACE = "replace"
    ALPHA = "alpha"  # src*alpha + dst*(1-alpha)
    ADDITIVE = "additive"


@dataclass
class FogState:
    """Linear fog: the fragment color fades to ``color`` with depth."""

    enabled: bool = False
    color: tuple[float, float, float] = (0.5, 0.5, 0.5)
    start: float = 0.0
    end: float = 1.0


@dataclass
class FragmentOps:
    """Configurable per-fragment pipeline applied to a framebuffer."""

    depth_test: bool = True
    depth_func: CompareFunc = CompareFunc.LESS
    depth_write: bool = True
    alpha_test: bool = False
    alpha_func: CompareFunc = CompareFunc.GREATER
    alpha_ref: float = 0.0
    stencil_test: bool = False
    stencil_func: CompareFunc = CompareFunc.ALWAYS
    stencil_ref: int = 0
    blend: BlendMode = BlendMode.REPLACE
    fog: FogState = field(default_factory=FogState)

    # Statistics (useful in tests and the example renderer).
    fragments_in: int = 0
    fragments_written: int = 0
    depth_kills: int = 0
    alpha_kills: int = 0
    stencil_kills: int = 0

    def process_many(
        self,
        framebuffer: Framebuffer,
        batch: FragmentBatch,
        color: np.ndarray | None = None,
    ) -> int:
        """Apply the fragment pipeline to a unique-pixel fragment batch.

        Applies the alpha/stencil/depth tests as cumulative numpy masks
        (each fragment counts toward the first test that kills it), then
        fog, blending and the framebuffer writes as array operations.
        Requires the batch's pixels to be distinct — the rasterizer
        guarantees that — so the batched read-modify-write against the
        framebuffer matches processing the fragments one at a time.
        Returns the number of fragments written.
        """
        count = len(batch)
        self.fragments_in += count
        if count == 0:
            return 0
        xs, ys, depth = batch.xs, batch.ys, batch.depth
        color = batch.color if color is None else color

        in_bounds = (xs >= 0) & (xs < framebuffer.width) & (ys >= 0) & (ys < framebuffer.height)
        if not in_bounds.all():
            xs, ys = xs[in_bounds], ys[in_bounds]
            depth, color = depth[in_bounds], color[in_bounds]
            if xs.shape[0] == 0:
                return 0

        alive = np.ones(xs.shape[0], dtype=bool)
        if self.alpha_test:
            passed = self.alpha_func.apply_many(color[:, 3], self.alpha_ref)
            self.alpha_kills += int(np.count_nonzero(alive & ~passed))
            alive &= passed
        if self.stencil_test:
            stencil = framebuffer.stencil[ys, xs].astype(np.float64)
            passed = self.stencil_func.apply_many(stencil, float(self.stencil_ref))
            self.stencil_kills += int(np.count_nonzero(alive & ~passed))
            alive &= passed
        if self.depth_test:
            passed = self.depth_func.apply_many(depth, framebuffer.depth[ys, xs])
            self.depth_kills += int(np.count_nonzero(alive & ~passed))
            alive &= passed
        if not alive.all():
            xs, ys = xs[alive], ys[alive]
            depth, color = depth[alive], color[alive]
            if xs.shape[0] == 0:
                return 0

        shaded = self._apply_fog_many(color, depth)
        framebuffer.color[ys, xs] = self._blend_many(framebuffer, xs, ys, shaded)
        if self.depth_test and self.depth_write:
            framebuffer.depth[ys, xs] = depth
        if self.stencil_test:
            framebuffer.stencil[ys, xs] = self.stencil_ref & 0xFF
        written = int(xs.shape[0])
        self.fragments_written += written
        return written

    # -- helpers --------------------------------------------------------------

    def _apply_fog_many(self, color: np.ndarray, depth: np.ndarray) -> np.ndarray:
        fog = self.fog
        if not fog.enabled or fog.end <= fog.start:
            return color
        factor = np.clip((depth - fog.start) / (fog.end - fog.start), 0.0, 1.0)
        fogged = np.empty_like(color)
        one_minus = 1 - factor
        for channel in range(3):
            fogged[:, channel] = color[:, channel] * one_minus + fog.color[channel] * factor
        fogged[:, 3] = color[:, 3]
        # Fragments with no fog keep their input color bit for bit.
        untouched = factor == 0.0
        if untouched.any():
            fogged[untouched] = color[untouched]
        return fogged

    def _blend_many(self, framebuffer: Framebuffer, xs, ys, color: np.ndarray) -> np.ndarray:
        """Blend a batch against the framebuffer; returns packed RGBA8 words."""
        src = np.clip(color, 0.0, 1.0)
        if self.blend is BlendMode.REPLACE:
            blended = src
        else:
            dst = unpack_colors(framebuffer.color[ys, xs]) / 255.0
            blended = np.empty_like(src)
            if self.blend is BlendMode.ALPHA:
                alpha = src[:, 3]
                one_minus = 1 - alpha
                for channel in range(3):
                    blended[:, channel] = (
                        src[:, channel] * alpha + dst[:, channel] * one_minus
                    )
            else:  # ADDITIVE
                blended[:, :3] = np.minimum(src[:, :3] + dst[:, :3], 1.0)
            blended[:, 3] = src[:, 3]
        return pack_colors(np.rint(blended * 255).astype(np.uint32))
