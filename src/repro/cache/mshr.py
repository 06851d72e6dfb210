"""Miss status holding registers (MSHR).

Each cache bank owns its own MSHR (the design point the paper adapts from
Asiatici & Ienne): a bounded table of outstanding missed lines, each
holding the list of core requests waiting for that line.  Only the first
miss to a line issues a fill to the next memory level; subsequent misses to
the same line merge into the existing entry, and all of them replay when
the fill returns.

:class:`CacheResponse` is the one record of a cache's accept/response half:
built once when a bank accepts lanes, parked in the MSHR (misses) or the
cache's due bucket, and handed to the requester as the same object.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.common.state import VALUE, Codec, Stateful


@dataclass(slots=True)
class CacheResponse:
    """The lanes of one run a bank accepted in one step, and their answer.

    ``addresses`` are consecutive lanes on one line sharing ``tag``, hit
    flag and response ``cycle`` (set when the response is scheduled).  A
    record is a grouping of adjacent per-lane responses, nothing more: any
    partition of the same lane stream delivers the same answers in the same
    order, so checkpoints keep one wire entry per lane (:func:`record_lanes`).
    """

    addresses: tuple[int, ...]
    is_write: bool
    tag: Any
    accept_cycle: int
    hit: bool
    cycle: int = 0


def record_lanes(record: CacheResponse, encode_tag: Callable[[Any], Any]) -> list[dict]:
    """Checkpoint codec: one plain ``{address, is_write, tag, accept_cycle}`` per lane."""
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


def lane_record(
    lane: dict, decode_tag: Callable[[Any], Any], hit: bool = False
) -> CacheResponse:
    """Invert :func:`record_lanes` for one lane: a singleton record."""
    return CacheResponse(
        (lane["address"],), lane["is_write"], decode_tag(lane["tag"]), lane["accept_cycle"], hit
    )


@dataclass
class MshrEntry:
    """Outstanding miss state for one cache line."""

    line_address: int
    fill_issued: bool = False
    waiting: list[Any] = field(default_factory=list)


def _restore_entries(
    mshr: Mshr, data: list, entries: dict[int, MshrEntry], decode_tag: Callable[[Any], Any]
) -> dict[int, MshrEntry]:
    entries.clear()
    for line, entry in data:
        waiting = [lane_record(lane, decode_tag) for lane in entry["waiting"]]
        entries[line] = MshrEntry(line, entry["fill_issued"], waiting)
    return entries


def _encode_entries(
    mshr: Mshr, entries: dict[int, MshrEntry], encode: Callable[[Any], Any]
) -> list[tuple[int, dict]]:
    encoded = []
    for line, entry in entries.items():
        waiting = [lane for record in entry.waiting for lane in record_lanes(record, encode)]
        encoded.append((line, {"fill_issued": entry.fill_issued, "waiting": waiting}))
    return encoded


#: The outstanding-miss table in entry order, one ``waiting`` item per lane.
_ENTRIES = Codec(_encode_entries, _restore_entries)


class Mshr(Stateful):
    """A bounded table of :class:`MshrEntry` keyed by line address."""

    STATE = {
        "_entries": _ENTRIES,
        "almost_full": VALUE,
        "peak_occupancy": VALUE,
        "merged": VALUE,
        "allocations": VALUE,
    }
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

    def lookup(self, line_address: int) -> MshrEntry | None:
        return self._entries.get(line_address)

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

    def release(self, line_address: int) -> list[Any]:
        """Remove the entry for ``line_address`` and return its waiting requests."""
        entry = self._entries.pop(line_address, None)
        if entry is None:
            return []
        self.almost_full = len(self._entries) >= self._almost_full_at
        return entry.waiting
