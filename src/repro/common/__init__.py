"""Shared infrastructure used by every Vortex subsystem.

This package hosts the pieces that the paper treats as cross-cutting
foundations: configuration dataclasses describing a processor build
(threads, warps, cores, cache geometry), bit-manipulation helpers used by
the ISA encoder/decoder and the ALU, and performance-counter plumbing
shared by the timing models.
"""

from repro.common.bitutils import (
    bit,
    bits,
    mask,
    sext,
    to_int32,
    to_uint32,
    popcount,
    float_to_bits,
    bits_to_float,
)
from repro.common.config import (
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    TextureConfig,
    VortexConfig,
)
from repro.common.perf import PerfCounters

__all__ = [
    "bit",
    "bits",
    "mask",
    "sext",
    "to_int32",
    "to_uint32",
    "popcount",
    "float_to_bits",
    "bits_to_float",
    "CacheConfig",
    "CoreConfig",
    "MemoryConfig",
    "TextureConfig",
    "VortexConfig",
    "PerfCounters",
]
