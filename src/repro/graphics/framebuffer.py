"""Render targets: color, depth and stencil buffers.

The frame buffer lives in host memory (the paper renders into a buffer in
the device's local memory and scans it out over PCIe; for the reproduction
the numpy arrays play that role and can be copied to a device buffer when a
kernel consumes them).
"""

from __future__ import annotations

import numpy as np

from repro.texture.formats import TexFormat, decode_texels, pack_rgba8_many

RGBA = tuple[int, int, int, int]


def pack_color(color: RGBA) -> int:
    """Pack an (r, g, b, a) byte tuple into the RGBA8 word stored per pixel."""
    r, g, b, a = (int(channel) & 0xFF for channel in color)
    return r | (g << 8) | (b << 16) | (a << 24)


def unpack_color(word: int) -> RGBA:
    """Unpack an RGBA8 word."""
    return (word & 0xFF, (word >> 8) & 0xFF, (word >> 16) & 0xFF, (word >> 24) & 0xFF)


def pack_colors(channels: np.ndarray) -> np.ndarray:
    """Vectorized :func:`pack_color`: ``(N, 4)`` byte channels -> uint32 words.

    The framebuffer stores the same RGBA8888 layout the texture sampler
    produces, so this delegates to the one bit-layout implementation in
    :mod:`repro.texture.formats`.
    """
    return pack_rgba8_many(channels.astype(np.uint32, copy=False) & np.uint32(0xFF))


def unpack_colors(words: np.ndarray) -> np.ndarray:
    """Vectorized :func:`unpack_color`: uint32 words -> ``(N, 4)`` byte channels."""
    return decode_texels(TexFormat.RGBA8, words)


class Framebuffer:
    """Color + depth + stencil attachment set."""

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("framebuffer dimensions must be positive")
        self.width = width
        self.height = height
        self.color = np.zeros((height, width), dtype=np.uint32)
        self.depth = np.ones((height, width), dtype=np.float32)
        self.stencil = np.zeros((height, width), dtype=np.uint8)

    # -- clears -----------------------------------------------------------------------

    def clear_color(self, color: RGBA = (0, 0, 0, 255)) -> None:
        self.color.fill(pack_color(color))

    def clear_depth(self, value: float = 1.0) -> None:
        self.depth.fill(np.float32(value))

    def clear_stencil(self, value: int = 0) -> None:
        self.stencil.fill(value & 0xFF)

    def clear(self, color: RGBA = (0, 0, 0, 255), depth: float = 1.0, stencil: int = 0) -> None:
        """Clear all attachments."""
        self.clear_color(color)
        self.clear_depth(depth)
        self.clear_stencil(stencil)

    # -- pixel access ------------------------------------------------------------------

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def write_pixel(self, x: int, y: int, color: RGBA) -> None:
        self.color[y, x] = pack_color(color)

    def read_pixel(self, x: int, y: int) -> RGBA:
        return unpack_color(int(self.color[y, x]))

    # -- export -------------------------------------------------------------------------

    def to_rgba_array(self) -> np.ndarray:
        """Return the color attachment as an (H, W, 4) uint8 array."""
        return self.color.view(np.uint8).reshape(self.height, self.width, 4).copy()

    def nonblack_pixels(self) -> int:
        """Number of pixels whose RGB channels are not all zero (test helper)."""
        return int(np.count_nonzero(self.color & 0x00FFFFFF))
