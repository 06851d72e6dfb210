"""The memory hierarchy connecting cores to off-chip memory.

Each core owns an instruction cache and a data cache; cores in a cluster
may share an optional L2, clusters may share an optional L3, and everything
ultimately reaches the DRAM timing model (paper section 4.1.4 and
Figure 4).  Each level below the L1s serves whole lines of the level above
(``VortexConfig`` refuses a shorter lower line).  ``MemorySubsystem`` wires
the levels together and ticks the shared ones: a fill request travels down
tagged ``(cache, line)``, and the response bearing that tag fills ``cache``;
write-throughs travel untagged.  Each timing core ticks its own L1s.
"""

from __future__ import annotations

from typing import Any

from repro.cache.cache import LowerPort, NonBlockingCache
from repro.common.clock import DeviceClock
from repro.common.config import VortexConfig
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, Codec, Stateful, child_via
from repro.mem.dram import DramModel, MemRequest


class _DramPort(LowerPort):
    """Lower port adapter that forwards cache traffic to the DRAM model."""

    # The DRAM request queue is shared and only fills while caches drain, so
    # once full it blocks fills and writes for the rest of the cycle; a
    # skipped attempt charges exactly what ``DramModel.send`` charges on refusal.

    def __init__(self, dram: DramModel):
        self.dram = dram

    def request_fill(self, cache: NonBlockingCache, line_address: int) -> bool:
        # The request carries a byte address, as a write-through's does.
        return self._send(line_address * cache._line_size, False, (cache, line_address))

    def request_write(self, cache: NonBlockingCache, address: int) -> bool:
        return self._send(address, True, None)

    def _send(self, address: int, is_write: bool, tag: Any) -> bool:
        if not self.dram.room:  # a full queue is not asked: no request is built
            self.note_skipped_refusal()
            return False
        return self.dram.send(MemRequest(address=address, is_write=is_write, tag=tag))

    def note_skipped_refusal(self, count: int = 1) -> None:
        self.dram.perf.incr("rejected", count)

    def blocked(self, is_write: bool) -> bool:
        return not self.dram.room


class _CachePort(LowerPort):
    """Lower port adapter that forwards traffic into another cache level."""

    def __init__(self, lower_cache: NonBlockingCache):
        self.lower_cache = lower_cache

    def request_fill(self, cache: NonBlockingCache, line_address: int) -> bool:
        # ``line_address`` is expressed in the *upper* cache's line units.
        byte_address = line_address * cache._line_size
        return self.lower_cache.send(byte_address, False, (cache, line_address))

    def request_write(self, cache: NonBlockingCache, address: int) -> bool:
        return self.lower_cache.send(address, True, None)

    def blocked(self, is_write: bool) -> bool:
        # A write-through needs the level below this cache as well; a fill may hit here.
        lower = self.lower_cache.lower
        return is_write and lower is not None and lower.blocked(True)


def _restore_levels(
    memsys: MemorySubsystem, data: dict, levels: list[NonBlockingCache], refs: object
) -> list[NonBlockingCache]:
    """The cache-name key set is the wiring (the driver-level envelope holds
    the configuration equal): only the state is restored."""
    caches = memsys._caches_by_name()
    if set(data) != set(caches):
        raise ValueError(
            "cache hierarchy mismatch: snapshot has "
            f"{sorted(data)}, subsystem has {sorted(caches)}"
        )
    for name, payload in data.items():
        caches[name].restore(payload, memsys._decode_tag)
    return levels


#: Every cache level keyed by name, tags encoded by cache name.
_LEVELS = Codec(
    lambda memsys, levels, refs: {
        cache.name: cache.snapshot(memsys._encode_tag) for cache in levels
    },
    _restore_levels,
    "caches",
)


class MemorySubsystem(Stateful):
    """All caches plus the DRAM model for one Vortex processor."""

    #: The cache levels first: a hierarchy mismatch is refused before the
    #: DRAM queue changes.
    STATE = {"_levels": _LEVELS, "dram": child_via("_encode_tag", "_decode_tag"), "perf": CHILD}
    #: Construction-time topology (vxlint VX007): the level references and
    #: ``_shared`` are wiring into ``_levels`` and ``dram``; the processor
    #: serializes the device clock.
    SNAPSHOT_EXCLUDED = frozenset(
        {"config", "clock", "l2", "l3", "icaches", "dcaches", "_shared"}
    )

    def __init__(self, config: VortexConfig, clock: DeviceClock | None = None):
        self.config = config
        self.clock = clock or DeviceClock()
        self.dram = DramModel(config.memory)
        self.perf = PerfCounters("memsys")
        below_l2: LowerPort = _DramPort(self.dram)

        # Optional L3 shared by all clusters.
        self.l3: NonBlockingCache | None = None
        if config.enable_l3:
            self.l3 = NonBlockingCache("l3", config.l3cache, below_l2, "l3")
            below_l2 = _CachePort(self.l3)

        # Optional L2 per cluster.
        self.l2: list[NonBlockingCache | None] = [
            NonBlockingCache(f"l2_{cluster}", config.l2cache, below_l2, "l2")
            if config.enable_l2
            else None
            for cluster in range(config.num_clusters)
        ]
        l2s = [cache for cache in self.l2 if cache is not None]

        # Per-core L1 instruction and data caches.
        self.icaches: list[NonBlockingCache] = []
        self.dcaches: list[NonBlockingCache] = []
        for core_id in range(config.num_cores):
            l2 = self.l2[core_id // config.cores_per_cluster]
            l1_lower = below_l2 if l2 is None else _CachePort(l2)
            self.icaches.append(
                NonBlockingCache(f"icache{core_id}", config.icache, l1_lower, "icache", core_id)
            )
            self.dcaches.append(
                NonBlockingCache(f"dcache{core_id}", config.dcache, l1_lower, "dcache", core_id)
            )

        l3s = [self.l3] if self.l3 is not None else []
        # The shared levels in tick order, lowest first: a fill reaches its
        # cache before that cache ticks, within the cycle.
        self._shared: list[Any] = [self.dram, *l3s, *l2s]
        # Every cache level, flattened once (the fast-forward's stranded-response
        # check, counters, checkpoints).
        self._levels: list[NonBlockingCache] = [*self.icaches, *self.dcaches, *l2s, *l3s]
        for component in (self.dram, *self._levels):
            component.clock = self.clock  # one device clock, read by every level

    # -- observability ---------------------------------------------------------------

    def attach_trace(self, trace: Any) -> None:
        """Wire a :class:`~repro.trace.bus.TraceBus` into every memory level.

        Each component is only attached when its channel is enabled on the
        bus, so a filtered bus keeps the unrelated hot paths on the
        ``trace is None`` fast path.
        """
        components: list[Any] = [self.dram, *self._levels]
        for component in components:
            wanted = trace is not None and trace.wants(component.trace_channel)
            component.trace = trace if wanted else None

    # -- per-cycle operation ---------------------------------------------------------

    def tick(self) -> None:
        """Run the shared levels' share of the current device cycle.

        DRAM, then L3, then each L2: a response tagged ``(cache, line)``
        fills ``cache`` before it ticks.  Untagged responses (write-through
        acknowledgements) need no routing.  Each core ticks its own L1s.
        A level is ticked only from its ``wake`` cycle on: before it, its
        tick would do nothing.
        """
        now = self.clock.now
        for level in self._shared:
            if level.wake <= now:
                for response in level.tick():
                    if response.tag is not None:
                        cache, line_address = response.tag
                        cache.fill(line_address)

    # -- checkpoint/restore ------------------------------------------------------------

    def _encode_tag(self, tag: object) -> object:
        """Encode a request tag as plain data (live caches become names).

        Tags are ``None``, the timing core's int/str tuples, or the
        ``(cache, line)`` fill tags of the shared levels and DRAM, which embed
        a live :class:`NonBlockingCache`.  Tuples are re-encoded as marker
        *lists* — unambiguous because no tag contains a list — so the decoder
        can rebuild the exact tuple shape and rebind caches by name.
        """
        if isinstance(tag, tuple):
            return ["tuple", *[self._encode_tag(item) for item in tag]]
        if isinstance(tag, NonBlockingCache):
            return ["cache", tag.name]
        return tag

    def _decode_tag(self, tag: object) -> object:
        """Invert :meth:`_encode_tag`, rebinding cache names to live caches."""
        if isinstance(tag, list):
            if tag[0] == "cache":
                return self._caches_by_name()[tag[1]]
            return tuple(self._decode_tag(item) for item in tag[1:])
        return tag

    def _caches_by_name(self) -> dict[str, NonBlockingCache]:
        return {cache.name: cache for cache in self._levels}

    # -- fast-forward ------------------------------------------------------------------

    def next_event_cycle(self) -> int | None:
        """Earliest cycle the shared levels' state changes (``None`` = idle).

        Every in-flight request below the L1s is visible either as a
        scheduled bank response at a shared cache level or as a DRAM queue
        entry (misses park in an MSHR *and* occupy the lower level's queue),
        so the minimum over those two families bounds the next fill, replay
        or response below the cores; each core reports its own L1s.
        """
        result = self.dram.next_event_cycle()
        for cache in self._shared[1:]:
            ready = cache.next_response_cycle()
            if ready is not None and (result is None or ready < result):
                result = ready
        return result

    def skip_idle(self, cycles: int) -> None:
        """Check the jump of ``cycles`` idle cycles the clock just made.

        Each core has already taken its L1s through the jump; the shared
        levels' bank-port maps, which every skipped tick would have cleared,
        are cleared here (each level then wakes at its next response).  A
        jump past a due response would strand it (:meth:`NonBlockingCache.tick`
        pops exactly the current cycle's bucket): a caller bug that fails
        here, at every level.
        """
        now = self.clock.now
        for cache in self._shared[1:]:
            cache.skip_idle()
        for cache in self._levels:
            due = cache.next_response_cycle()
            if due is not None and due <= now:
                from repro.core.emulator import EmulationError  # cache sits below core

                raise EmulationError(
                    f"{cache.name}: skip_idle({cycles}) to cycle {now} passed a "
                    f"response due at cycle {due}"
                )

    # -- inspection -------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while any cache level or the DRAM still has outstanding work."""
        if self.dram.pending:
            return True
        return any(cache.busy for cache in self._levels)

    def dcache(self, core_id: int) -> NonBlockingCache:
        return self.dcaches[core_id]

    def icache(self, core_id: int) -> NonBlockingCache:
        return self.icaches[core_id]

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-component counter snapshot for reports."""
        return {
            "dram": self.dram.perf.as_dict(),
            **{cache.name: cache.counters() for cache in self._levels},
        }
