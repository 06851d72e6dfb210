"""The memory hierarchy connecting cores to off-chip memory.

Each core owns an instruction cache and a data cache; cores in a cluster
may share an optional L2, clusters may share an optional L3, and everything
ultimately reaches the DRAM timing model (paper section 4.1.4 and
Figure 4).  ``MemorySubsystem`` wires the levels together, forwards fills
and write-through traffic downward, routes completed fills back upward, and
hands per-core responses to the timing cores every cycle.
"""

from __future__ import annotations

from typing import Any

from repro.cache.cache import CacheResponse, LowerPort, NonBlockingCache
from repro.common.clock import DeviceClock
from repro.common.config import VortexConfig
from repro.common.perf import PerfCounters
from repro.mem.dram import DramModel, MemRequest


class _DramPort(LowerPort):
    """Lower port adapter that forwards cache traffic to the DRAM model."""

    # The DRAM request queue is shared and only fills while caches drain, so
    # once full it blocks fills and writes for the rest of the cycle; a
    # skipped attempt charges exactly what ``DramModel.send`` charges on refusal.

    def __init__(self, dram: DramModel):
        self.dram = dram

    def request_fill(self, cache: NonBlockingCache, line_address: int) -> bool:
        return self._send(line_address, False, (cache, line_address))

    def request_write(self, cache: NonBlockingCache, address: int) -> bool:
        return self._send(address, True, None)

    def _send(self, address: int, is_write: bool, tag: Any) -> bool:
        if not self.dram.can_accept:  # a full queue is not asked: no request is built
            self.note_skipped_refusal()
            return False
        return self.dram.send(MemRequest(address=address, is_write=is_write, tag=tag))

    def note_skipped_refusal(self, count: int = 1) -> None:
        self.dram.perf.incr("rejected", count)

    def blocked(self, is_write: bool) -> bool:
        return not self.dram.can_accept

    def refusal_horizon(self) -> int | None:
        # A full DRAM queue pops nothing before its head's ready cycle, and
        # it only refills during core drains — so refusal is guaranteed for
        # every cycle strictly before that head release.
        dram = self.dram
        if dram.can_accept:
            return None
        return dram.next_event_cycle()


class _CachePort(LowerPort):
    """Lower port adapter that forwards traffic into another cache level."""

    def __init__(self, lower_cache: NonBlockingCache, line_size: int):
        self.lower_cache = lower_cache
        self.line_size = line_size

    def request_fill(self, cache: NonBlockingCache, line_address: int) -> bool:
        # ``line_address`` is expressed in the *upper* cache's line units.
        byte_address = line_address * cache.config.line_size
        return self.lower_cache.send(byte_address, False, ("fill", cache, line_address))

    def request_write(self, cache: NonBlockingCache, address: int) -> bool:
        return self.lower_cache.send(address, True, ("wt", cache, address))

    def blocked(self, is_write: bool) -> bool:
        # A write-through needs the level below this cache as well; a fill may hit here.
        lower = self.lower_cache.lower
        return is_write and lower is not None and lower.blocked(True)

    def note_blocked_writes(self, runs: list[tuple[int, ...]]) -> None:
        cache = self.lower_cache
        if not cache._accepts_this_cycle and cache.trace is None:
            # Every bank port is free (and nobody watches): each lane would
            # have been refused by the level below, which is charged in turn.
            lanes = sum(map(len, runs))
            cache._counters["attempts"] += lanes
            cache._counters["memq_stalls"] += lanes
            cache.lower.note_blocked_writes(runs)
            return
        # Otherwise the lower cache's batch path — held to a loop of ``send``
        # calls by tests/test_cache.py — finds its own lower blocked and
        # charges every address as ``request_write`` would have: a bank
        # conflict, or a refusal handed on down; it accepts none.
        line_size, num_banks = self.line_size, cache.config.num_banks
        requests = [
            ((address,), address // line_size, address // line_size % num_banks)
            for addresses in runs
            for address in addresses
        ]
        cache.send_batch(requests, len(requests), True, None)


class MemorySubsystem:
    """All caches plus the DRAM model for one Vortex processor."""

    #: Construction-time topology (vxlint VX007): the level references are
    #: wiring into ``_levels``, whose caches serialize by name in
    #: :meth:`snapshot`; the processor serializes the device clock.
    SNAPSHOT_EXCLUDED = frozenset({"config", "clock", "l2", "l3", "icaches", "dcaches"})

    def __init__(self, config: VortexConfig, clock: DeviceClock | None = None):
        self.config = config
        self.clock = clock or DeviceClock()
        self.dram = DramModel(config.memory)
        self.perf = PerfCounters("memsys")
        dram_port = _DramPort(self.dram)

        # Optional L3 shared by all clusters.
        self.l3: NonBlockingCache | None = None
        if config.enable_l3:
            self.l3 = NonBlockingCache("l3", config.l3cache, lower=dram_port)
        below_l2_port = (
            _CachePort(self.l3, config.l3cache.line_size) if self.l3 is not None else dram_port
        )

        # Optional L2 per cluster.
        self.l2: list[NonBlockingCache | None] = []
        for cluster in range(config.num_clusters):
            if config.enable_l2:
                self.l2.append(
                    NonBlockingCache(f"l2_{cluster}", config.l2cache, lower=below_l2_port)
                )
            else:
                self.l2.append(None)

        # Per-core L1 instruction and data caches.
        self.icaches: list[NonBlockingCache] = []
        self.dcaches: list[NonBlockingCache] = []
        for core_id in range(config.num_cores):
            cluster = core_id // config.cores_per_cluster
            if self.l2[cluster] is not None:
                l1_lower: LowerPort = _CachePort(self.l2[cluster], config.l2cache.line_size)
            else:
                l1_lower = below_l2_port
            self.icaches.append(
                NonBlockingCache(f"icache{core_id}", config.icache, lower=l1_lower)
            )
            self.dcaches.append(
                NonBlockingCache(f"dcache{core_id}", config.dcache, lower=l1_lower)
            )

        # Every cache level, flattened once: the fast-forward event scan and
        # bulk skip run over this list every cycle-jump decision.
        self._levels: list[NonBlockingCache] = list(self.icaches) + list(self.dcaches)
        self._levels += [cache for cache in self.l2 if cache is not None]
        if self.l3 is not None:
            self._levels.append(self.l3)
        for component in (self.dram, *self._levels):
            component.clock = self.clock  # one device clock, read by every level

    # -- observability ---------------------------------------------------------------

    def attach_trace(self, trace: Any) -> None:
        """Wire a :class:`~repro.trace.bus.TraceBus` into every memory level.

        Each component is only attached when its channel is enabled on the
        bus, so a filtered bus keeps the unrelated hot paths on the
        ``trace is None`` fast path.
        """
        self.dram.trace = trace if trace is not None and trace.wants("dram") else None
        for core_id, cache in enumerate(self.icaches):
            cache.trace_channel = "icache"
            cache.trace_core = core_id
            cache.trace = trace if trace is not None and trace.wants("icache") else None
        for core_id, cache in enumerate(self.dcaches):
            cache.trace_channel = "dcache"
            cache.trace_core = core_id
            cache.trace = trace if trace is not None and trace.wants("dcache") else None
        for l2cache in self.l2:
            if l2cache is not None:
                l2cache.trace_channel = "l2"
                l2cache.trace = trace if trace is not None and trace.wants("l2") else None
        if self.l3 is not None:
            self.l3.trace_channel = "l3"
            self.l3.trace = trace if trace is not None and trace.wants("l3") else None

    # -- per-cycle operation ---------------------------------------------------------

    def tick(self) -> dict[tuple[str, int], list[CacheResponse]]:
        """Run every level's share of the current device cycle.

        Returns the L1 responses grouped by ``("i" | "d", core_id)`` so the
        timing cores can complete their outstanding operations.
        """
        # DRAM completes first so its fills can propagate upward this cycle.
        for response in self.dram.tick():
            if response.is_write or response.tag is None:
                continue
            cache, line_address = response.tag
            cache.fill(line_address)

        # Lower cache levels tick before upper levels so responses flow upward.
        if self.l3 is not None:
            self._route_internal(self.l3.tick(), self.l3)
        for l2cache in self.l2:
            if l2cache is not None:
                self._route_internal(l2cache.tick(), l2cache)

        results: dict[tuple[str, int], list[CacheResponse]] = {}
        for core_id in range(self.config.num_cores):
            icache_responses = self.icaches[core_id].tick()
            dcache_responses = self.dcaches[core_id].tick()
            if icache_responses:
                results[("i", core_id)] = icache_responses
            if dcache_responses:
                results[("d", core_id)] = dcache_responses
        return results

    def _route_internal(self, responses: list[CacheResponse], level: NonBlockingCache) -> None:
        """Route L2/L3 responses back to the caches that requested them."""
        for response in responses:
            tag = response.tag
            if not isinstance(tag, tuple):
                continue
            kind = tag[0]
            if kind == "fill":
                _, upper_cache, line_address = tag
                upper_cache.fill(line_address)
            # Write-through acknowledgements need no routing.

    # -- checkpoint/restore ------------------------------------------------------------

    def _encode_tag(self, tag: object) -> object:
        """Encode a request tag as plain data (live caches become names).

        Tags are ``None``, ints/strs, or tuples that may embed a live
        :class:`NonBlockingCache` (DRAM fill tags, L2/L3 ``("fill", ...)`` /
        ``("wt", ...)`` tags).  Tuples are re-encoded as marker *lists* —
        unambiguous because no tag contains a list — so the decoder can
        rebuild the exact tuple shape and rebind caches by name.
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

    def snapshot(self) -> dict:
        """Serialize DRAM plus every cache level (keyed by cache name)."""
        return {
            "dram": self.dram.snapshot(self._encode_tag),
            "caches": {
                cache.name: cache.snapshot(self._encode_tag) for cache in self._levels
            },
            "perf": self.perf.snapshot(),
        }

    def restore(self, payload: dict) -> None:
        """Restore the hierarchy from a :meth:`snapshot` payload.

        The subsystem must have been built from the same configuration (the
        driver-level envelope enforces this via the config fingerprint): the
        cache-name key set is the wiring, only the state is restored.
        """
        caches = self._caches_by_name()
        if set(payload["caches"]) != set(caches):
            raise ValueError(
                "cache hierarchy mismatch: snapshot has "
                f"{sorted(payload['caches'])}, subsystem has {sorted(caches)}"
            )
        self.dram.restore(payload["dram"], self._decode_tag)
        for name, cache_payload in payload["caches"].items():
            caches[name].restore(cache_payload, self._decode_tag)
        self.perf.restore(payload["perf"])

    # -- fast-forward ------------------------------------------------------------------

    def next_event_cycle(self) -> int | None:
        """Earliest cycle any memory-side state changes (``None`` = fully idle).

        Every in-flight request is visible either as a scheduled bank
        response at some cache level or as a DRAM queue entry (misses park
        in an MSHR *and* occupy the lower level's queue), so the minimum
        over those two families bounds the next fill, replay or response
        anywhere in the hierarchy.
        """
        result = self.dram.next_event_cycle()
        for cache in self._levels:
            ready = cache.next_response_cycle()
            if ready is not None and (result is None or ready < result):
                result = ready
        return result

    def skip_idle(self, cycles: int) -> None:
        """Check the jump of ``cycles`` idle cycles the clock just made.

        No level has state to advance in a provably idle window, but
        :meth:`NonBlockingCache.tick` pops exactly the current cycle's due
        bucket, so a jump past a due response would strand it: that is a
        caller bug and fails here, not as a hang at ``max_cycles``.
        """
        now = self.clock.now
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
        summary: dict[str, dict[str, int]] = {"dram": self.dram.perf.as_dict()}
        for cache in self.icaches + self.dcaches:
            summary[cache.name] = cache.counters()
        for cache in self.l2:
            if cache is not None:
                summary[cache.name] = cache.counters()
        if self.l3 is not None:
            summary[self.l3.name] = self.l3.counters()
        return summary
