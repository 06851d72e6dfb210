"""High-bandwidth non-blocking cache subsystem (paper section 4.3).

The cache is multi-banked: the bank selector routes incoming core requests
to banks by address, resolving bank conflicts; each bank has its own MSHR
and a four-stage pipeline (schedule, tag access, data access, response);
virtual multi-porting lets one bank accept several requests per cycle when
they fall on the same cache line; the bank merger coalesces outgoing
responses.  Misses are forwarded to the next level (another cache or the
DRAM model), and the deadlock-avoidance rules of the paper (early-full MSHR
signal, never letting the memory request queue fill) are respected.
"""

from repro.cache.mshr import CacheResponse, Mshr, MshrEntry
from repro.cache.bank import CacheBank
from repro.cache.cache import NonBlockingCache
from repro.cache.sharedmem import SharedMemory
from repro.cache.hierarchy import MemorySubsystem

__all__ = [
    "Mshr",
    "MshrEntry",
    "CacheBank",
    "NonBlockingCache",
    "CacheResponse",
    "SharedMemory",
    "MemorySubsystem",
]
