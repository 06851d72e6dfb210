"""One cache bank: tag store, LRU state and MSHR.

A bank is single-ported in hardware; the enclosing cache's bank selector
guarantees that at most one cache line is accessed per bank per cycle (the
virtual multi-porting optimization lets several *requests* share that one
line access — and one answer).  The bank therefore only models tag lookups,
LRU replacement and its MSHR; the hit-latency delay between acceptance and
response is the cache's one due bucket, not per-bank state.
"""

from __future__ import annotations

from repro.cache.mshr import CacheResponse, Mshr
from repro.common.config import CacheConfig
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, VALUE, Codec, Stateful

#: The tag store: per set, tag -> last-use counter.
_TAGS = Codec(
    lambda bank, sets, refs: [dict(ways) for ways in sets],
    lambda bank, data, sets, refs: [dict(ways) for ways in data],
)


class CacheBank(Stateful):
    """Tag/data arrays plus MSHR for one bank.

    The bank's share of the cache's due bucket travels in its payload too,
    under ``"pending"`` (see :class:`~repro.cache.cache.NonBlockingCache`).
    """

    STATE = {"_tags": _TAGS, "_use_counter": VALUE, "mshr": CHILD, "perf": CHILD}
    #: Construction-time geometry; rebuilt by ``__init__`` (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"bank_id", "config", "num_sets", "num_ways"})

    def __init__(self, bank_id: int, config: CacheConfig):
        self.bank_id = bank_id
        self.config = config
        self.num_sets = config.num_sets
        self.num_ways = config.num_ways
        # tags[set] maps tag -> last-use counter (LRU bookkeeping).
        self._tags: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._use_counter = 0
        self.mshr = Mshr(config.mshr_size)
        self.perf = PerfCounters(f"bank{bank_id}")

    # -- address helpers -----------------------------------------------------------

    def _set_index(self, line_address: int) -> int:
        return (line_address // self.config.num_banks) % self.num_sets

    def _tag_of(self, line_address: int) -> int:
        return line_address // (self.num_sets * self.config.num_banks)

    # -- tag store ------------------------------------------------------------------

    def probe(self, line_address: int) -> bool:
        """Tag lookup without side effects (runs on every request attempt).

        Keep the mapping in sync with :meth:`_set_index`/:meth:`_tag_of` —
        this is those two computations inlined (the helper calls are
        measurable at the retry loop's call rate).
        """
        relative = line_address // self.config.num_banks
        return relative // self.num_sets in self._tags[relative % self.num_sets]

    def touch(self, line_address: int, lanes: int = 1) -> None:
        """Update LRU state for ``lanes`` hits on one line (as that many calls would)."""
        set_index = self._set_index(line_address)
        tag = self._tag_of(line_address)
        self._use_counter += lanes
        self._tags[set_index][tag] = self._use_counter

    def install(self, line_address: int) -> int | None:
        """Install a line, evicting the LRU way if the set is full.

        Returns the evicted line address, or ``None`` when no eviction
        happened.
        """
        set_index = self._set_index(line_address)
        tag = self._tag_of(line_address)
        ways = self._tags[set_index]
        self._use_counter += 1
        evicted = None
        if tag not in ways and len(ways) >= self.num_ways:
            victim_tag = min(ways, key=ways.get)
            del ways[victim_tag]
            evicted = (
                victim_tag * self.num_sets * self.config.num_banks
                + (set_index * self.config.num_banks)
                + self.bank_id
            )
            self.perf.incr("evictions")
        ways[tag] = self._use_counter
        return evicted

    # -- request handling ------------------------------------------------------------

    def fill(self, line_address: int) -> list[CacheResponse]:
        """Handle a returning memory fill: install the line, replay the MSHR.

        Returns the replayed records (their responses are scheduled by the
        caller so that replay shares the normal response path).
        """
        self.install(line_address)
        waiting = self.mshr.release(line_address)
        self.perf.incr("fills")
        return waiting
