"""One cache bank: tag store, LRU state and MSHR — plus the response record.

A bank is single-ported in hardware; the enclosing cache's bank selector
guarantees that at most one cache line is accessed per bank per cycle (the
virtual multi-porting optimization lets several *requests* share that one
line access — and one answer).  The bank therefore only models tag lookups,
LRU replacement and its MSHR; the hit-latency delay between acceptance and
response is the cache's one due bucket, not per-bank state.

:class:`CacheResponse` is the one record of the accept/response half: built
once when a bank accepts lanes, parked in the MSHR (misses) or the cache's
due bucket, and handed to the requester as the same object.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.cache.mshr import Mshr
from repro.common.config import CacheConfig
from repro.common.perf import PerfCounters, hot_path


@dataclass(slots=True)
class CacheResponse:
    """The lanes of one run a bank accepted in one step, and their answer.

    ``addresses`` are consecutive lanes on one line sharing ``tag``, hit
    flag and response ``cycle`` (set when the response is scheduled).  A
    record is a grouping of adjacent per-lane responses, nothing more: any
    partition of the same lane stream delivers the same answers in the same
    order, so checkpoints keep one wire entry per lane.
    """

    addresses: tuple[int, ...]
    is_write: bool
    tag: Any
    accept_cycle: int
    hit: bool
    cycle: int = 0


class CacheBank:
    """Tag/data arrays plus MSHR for one bank."""

    #: Counter schema (vxlint VX003).
    COUNTERS = frozenset({"evictions", "fills"})

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

    @hot_path
    def probe(self, line_address: int) -> bool:
        """Tag lookup without side effects (runs on every request attempt).

        Keep the mapping in sync with :meth:`_set_index`/:meth:`_tag_of` —
        this is those two computations inlined (the helper calls are
        measurable at the retry loop's call rate).
        """
        relative = line_address // self.config.num_banks
        return relative // self.num_sets in self._tags[relative % self.num_sets]

    @hot_path
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

    # -- checkpoint/restore ----------------------------------------------------------

    def snapshot(
        self, encode_tag: Callable[[Any], Any], due: list[tuple[int, CacheResponse]]
    ) -> dict:
        """Serialize tag store, LRU state, MSHR and scheduled responses.

        ``due`` is this bank's share of the cache's due bucket as
        ``(ready cycle, record)`` in delivery order.  The wire format is per
        lane — one ``(ready, lane, hit)`` per address — whatever the records.
        """

        def lanes(record: CacheResponse) -> list[dict]:
            tag = encode_tag(record.tag)
            return [
                {
                    "address": address,
                    "is_write": record.is_write,
                    "tag": tag,
                    "accept_cycle": record.accept_cycle,
                }
                for address in record.addresses
            ]

        return {
            "tags": [dict(ways) for ways in self._tags],
            "use_counter": self._use_counter,
            "mshr": self.mshr.snapshot(lanes),
            "pending": [
                (ready, lane, record.hit) for ready, record in due for lane in lanes(record)
            ],
            "perf": self.perf.snapshot(),
        }

    def restore(
        self, payload: dict, decode_tag: Callable[[Any], Any]
    ) -> list[tuple[int, CacheResponse]]:
        """Restore bank state; returns the scheduled ``(ready cycle, record)``
        list (one singleton record per wire lane) for the cache's due bucket."""

        def record(data: dict, hit: bool = False) -> CacheResponse:
            return CacheResponse(
                (data["address"],), data["is_write"], decode_tag(data["tag"]),
                data["accept_cycle"], hit,
            )

        self._tags = [dict(ways) for ways in payload["tags"]]
        self._use_counter = payload["use_counter"]
        self.mshr.restore(payload["mshr"], record)
        self.perf.restore(payload["perf"])
        return [(ready, record(data, hit)) for ready, data, hit in payload["pending"]]

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
