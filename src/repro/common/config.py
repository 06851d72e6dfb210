"""Configuration dataclasses describing a Vortex processor build.

A :class:`VortexConfig` captures the knobs the paper sweeps in its
evaluation section: warps and threads per core (Table 3 / Figure 14), core
count (Table 4 / Figure 18), cache banks and virtual ports (Table 5 /
Figure 19), texture hardware on/off (Figure 20), and the DRAM latency and
bandwidth knobs used by Figure 21.  Every simulator driver, the synthesis
area model and the benchmark harness consume the same dataclasses, so a
configuration used to measure IPC is by construction the configuration the
area model prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one non-blocking multi-banked cache (section 4.3)."""

    size: int = 16 * 1024
    line_size: int = 64
    num_banks: int = 4
    num_ways: int = 2
    num_ports: int = 1
    mshr_size: int = 8
    hit_latency: int = 2
    write_through: bool = True

    def __post_init__(self) -> None:
        if self.line_size & (self.line_size - 1):
            raise ValueError("cache line size must be a power of two")
        if self.num_banks & (self.num_banks - 1):
            raise ValueError("bank count must be a power of two")
        if self.size % (self.line_size * self.num_banks * self.num_ways):
            raise ValueError("cache size must divide evenly into ways and banks")
        if self.num_ports < 1:
            raise ValueError("a cache bank needs at least one port")
        if self.hit_latency < 0:
            raise ValueError("cache hit latency cannot be negative")

    @property
    def num_sets(self) -> int:
        """Sets per bank."""
        return self.size // (self.line_size * self.num_banks * self.num_ways)


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory (DRAM) latency/bandwidth model used by Figure 21."""

    latency: int = 100
    bandwidth: int = 1
    request_queue_size: int = 16

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise ValueError("memory latency must be at least one cycle")
        if self.bandwidth < 1:
            raise ValueError("memory bandwidth must be at least one response per cycle")


@dataclass(frozen=True)
class TextureConfig:
    """Texture unit configuration (section 4.2)."""

    enabled: bool = True
    num_states: int = 2
    address_latency: int = 1
    sampler_latency: int = 2

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise ValueError("at least one texture state is required")


#: Wavefront scheduler policies the cycle-level core can be configured with.
#: ``"round-robin"`` is the paper's hierarchical two-level policy (and the
#: counter-identical default); the alternatives are the classic design-space
#: axis the timing model sweeps.  ``"cache-locality"`` came out of the trace
#: forensics on the greedy-then-oldest pathology: prefer warps touching the
#: current D$ line, but never re-select a warp whose last issue attempt hit a
#: scoreboard hazard.
SCHEDULER_POLICIES = (
    "round-robin",
    "greedy-then-oldest",
    "loose-round-robin",
    "cache-locality",
)


@dataclass(frozen=True)
class CoreConfig:
    """Per-core SIMT configuration (section 4.1)."""

    num_warps: int = 4
    num_threads: int = 4
    num_barriers: int = 4
    ipdom_depth: int = 32
    fpu_latency: int = 4
    fdiv_latency: int = 16
    fsqrt_latency: int = 16
    imul_latency: int = 3
    idiv_latency: int = 16
    shared_mem_size: int = 8 * 1024
    #: Wavefront scheduler policy of the cycle-level core (see
    #: :data:`SCHEDULER_POLICIES`).  Only the timing model consults it; the
    #: functional engines execute wavefronts in a fixed interleaving.
    scheduler_policy: str = "round-robin"

    def __post_init__(self) -> None:
        if self.scheduler_policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown scheduler policy {self.scheduler_policy!r}; "
                f"available: {sorted(SCHEDULER_POLICIES)}"
            )
        if self.num_warps < 1 or self.num_threads < 1:
            raise ValueError("a core needs at least one warp and one thread")
        if self.num_threads > 32:
            raise ValueError("the thread mask register is 32 bits wide")
        if self.num_warps > 32:
            raise ValueError("the wavefront masks are 32 bits wide")


@dataclass(frozen=True)
class VortexConfig:
    """Full processor configuration: cores, clusters, caches, memory, texture."""

    num_cores: int = 1
    num_clusters: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    icache: CacheConfig = field(default_factory=lambda: CacheConfig(size=8 * 1024, num_banks=1))
    dcache: CacheConfig = field(default_factory=CacheConfig)
    l2cache: CacheConfig = field(default_factory=lambda: CacheConfig(size=128 * 1024, num_banks=4))
    l3cache: CacheConfig = field(default_factory=lambda: CacheConfig(size=1024 * 1024, num_banks=8))
    enable_l2: bool = False
    enable_l3: bool = False
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    texture: TextureConfig = field(default_factory=TextureConfig)

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("at least one core is required")
        if self.num_clusters < 1:
            raise ValueError("at least one cluster is required")
        if self.num_cores % self.num_clusters:
            raise ValueError("cores must divide evenly into clusters")

    # -- convenience accessors -------------------------------------------------

    @property
    def cores_per_cluster(self) -> int:
        return self.num_cores // self.num_clusters

    @property
    def num_warps(self) -> int:
        return self.core.num_warps

    @property
    def num_threads(self) -> int:
        return self.core.num_threads

    @property
    def total_threads(self) -> int:
        """Hardware threads across the whole processor."""
        return self.num_cores * self.core.num_warps * self.core.num_threads

    def with_cores(self, num_cores: int, num_clusters: int = 1) -> VortexConfig:
        """Return a copy scaled to ``num_cores`` cores."""
        return replace(self, num_cores=num_cores, num_clusters=num_clusters)

    def with_warps_threads(self, num_warps: int, num_threads: int) -> VortexConfig:
        """Return a copy with a different warp/thread geometry."""
        return replace(self, core=replace(self.core, num_warps=num_warps, num_threads=num_threads))

    def with_scheduler_policy(self, policy: str) -> VortexConfig:
        """Return a copy with a different wavefront scheduler policy."""
        return replace(self, core=replace(self.core, scheduler_policy=policy))

    def with_dcache_ports(self, num_ports: int) -> VortexConfig:
        """Return a copy with a different virtual-port count on the data cache."""
        return replace(self, dcache=replace(self.dcache, num_ports=num_ports))

    def with_memory(self, latency: int, bandwidth: int) -> VortexConfig:
        """Return a copy with different DRAM latency/bandwidth (Figure 21)."""
        return replace(self, memory=MemoryConfig(latency=latency, bandwidth=bandwidth))

    def with_cache_hierarchy(
        self, enable_l2: bool = False, enable_l3: bool = False
    ) -> VortexConfig:
        """Return a copy with the shared cache levels toggled (the L2/L3 axis)."""
        return replace(self, enable_l2=enable_l2, enable_l3=enable_l3)

    def describe(self) -> dict[str, int]:
        """Return a flat summary used by reports and the area model."""
        return {
            "cores": self.num_cores,
            "clusters": self.num_clusters,
            "warps": self.core.num_warps,
            "threads": self.core.num_threads,
            "dcache_banks": self.dcache.num_banks,
            "dcache_ports": self.dcache.num_ports,
            "mem_latency": self.memory.latency,
            "mem_bandwidth": self.memory.bandwidth,
        }


# Named configurations used throughout the evaluation section.
def baseline_config(**overrides) -> VortexConfig:
    """The paper's baseline: 4 warps x 4 threads per core, 4-bank 16KB D$."""
    config = VortexConfig()
    if overrides:
        config = replace(config, **overrides)
    return config


#: Table 3 / Figure 14 core design-space points, keyed by their paper label.
CORE_DESIGN_POINTS = {
    "4W-4T": (4, 4),
    "2W-8T": (2, 8),
    "8W-2T": (8, 2),
    "4W-8T": (4, 8),
    "8W-4T": (8, 4),
}
