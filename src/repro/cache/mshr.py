"""Miss status holding registers (MSHR).

Each cache bank owns its own MSHR (the design point the paper adapts from
Asiatici & Ienne): a bounded table of outstanding missed lines, each
holding the list of core requests waiting for that line.  Only the first
miss to a line issues a fill to the next memory level; subsequent misses to
the same line merge into the existing entry, and all of them replay when
the fill returns.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.common.perf import hot_path


@dataclass
class MshrEntry:
    """Outstanding miss state for one cache line."""

    line_address: int
    fill_issued: bool = False
    waiting: list[Any] = field(default_factory=list)


class Mshr:
    """A bounded table of :class:`MshrEntry` keyed by line address."""

    #: Construction-time capacity and its precomputed threshold (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"capacity", "_almost_full_at"})

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("MSHR capacity must be at least 1")
        self.capacity = capacity
        # Early-full threshold, clamped so a capacity-1 table is not
        # permanently "almost full" (precomputed: checked on every request).
        self._almost_full_at = max(capacity - 1, 1)
        self._entries: dict[int, MshrEntry] = {}
        #: The early-full signal used to avoid the deadlock described in 4.3,
        #: maintained as a plain attribute (occupancy only changes in
        #: :meth:`allocate`/:meth:`release`) because the request paths read it
        #: once per *attempt* — at retry-storm rates a recomputing property is
        #: measurable.  The threshold is clamped to at least one occupied
        #: entry: with ``capacity == 1`` the naive ``capacity - 1`` threshold
        #: would assert even on an empty table, backpressuring every read
        #: forever.
        self.almost_full = False
        self.peak_occupancy = 0
        self.merged = 0
        self.allocations = 0

    # -- capacity ------------------------------------------------------------------

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def __len__(self) -> int:
        return len(self._entries)

    # -- allocation ----------------------------------------------------------------

    @hot_path
    def lookup(self, line_address: int) -> MshrEntry | None:
        return self._entries.get(line_address)

    @hot_path
    def allocate(self, line_address: int, request: Any, lanes: int = 1) -> MshrEntry | None:
        """Add ``request`` to the entry for ``line_address``.

        Returns the entry, or ``None`` when a new entry is needed but the
        table is full.  The caller checks ``fill_issued`` to know whether a
        fill request must be sent to the lower level.  ``lanes`` is how many
        merging lanes ``request`` stands for (the cache parks one record per
        accepted run); a new entry is always allocated by a single lane.
        """
        entry = self._entries.get(line_address)
        if entry is not None:
            entry.waiting.append(request)
            self.merged += lanes
            return entry
        if self.full:
            return None
        entry = MshrEntry(line_address=line_address, waiting=[request])
        self._entries[line_address] = entry
        self.allocations += 1
        occupancy = len(self._entries)
        self.almost_full = occupancy >= self._almost_full_at
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        return entry

    # -- checkpoint/restore --------------------------------------------------------

    def snapshot(self, encode_lanes: Callable[[Any], list[Any]]) -> dict:
        """Serialize the outstanding-miss table (entry order preserved).

        ``encode_lanes`` maps a waiting request to its per-lane plain data
        (the wire holds one ``waiting`` item per lane); the owning
        :class:`~repro.cache.bank.CacheBank` supplies the codec.
        """
        return {
            "entries": [
                (
                    line,
                    {
                        "fill_issued": entry.fill_issued,
                        "waiting": [
                            lane for request in entry.waiting for lane in encode_lanes(request)
                        ],
                    },
                )
                for line, entry in self._entries.items()
            ],
            "almost_full": self.almost_full,
            "peak_occupancy": self.peak_occupancy,
            "merged": self.merged,
            "allocations": self.allocations,
        }

    def restore(self, payload: dict, decode_request: Callable[[Any], Any]) -> None:
        """Restore the miss table from a :meth:`snapshot` payload."""
        self._entries.clear()
        for line, data in payload["entries"]:
            self._entries[line] = MshrEntry(
                line_address=line,
                fill_issued=data["fill_issued"],
                waiting=[decode_request(request) for request in data["waiting"]],
            )
        self.almost_full = payload["almost_full"]
        self.peak_occupancy = payload["peak_occupancy"]
        self.merged = payload["merged"]
        self.allocations = payload["allocations"]

    def release(self, line_address: int) -> list[Any]:
        """Remove the entry for ``line_address`` and return its waiting requests."""
        entry = self._entries.pop(line_address, None)
        if entry is None:
            return []
        self.almost_full = len(self._entries) >= self._almost_full_at
        return entry.waiting

    def pending_lines(self) -> list[int]:
        return list(self._entries)
