"""Wavefront barriers (paper section 4.1.3).

A barrier table keeps, per barrier id, the number of wavefronts still
expected and the mask of wavefronts currently stalled on it.  When the
expected count is reached the stalled wavefronts are released.  The same
structure is used for the per-core (local) barriers and — with warp ids
replaced by (core, warp) pairs — for the global barriers selected by the
MSB of the barrier id in multi-core configurations.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.common.state import VALUE, Codec, Stateful, child_via

#: Barrier ids with this bit set have global (inter-core) scope.
GLOBAL_BARRIER_FLAG = 1 << 31


def is_global_barrier(barrier_id: int) -> bool:
    """Return True when ``barrier_id`` selects a global barrier."""
    return bool(barrier_id & GLOBAL_BARRIER_FLAG)


def local_barrier_index(barrier_id: int) -> int:
    """Strip the scope flag, leaving the table index."""
    return barrier_id & ~GLOBAL_BARRIER_FLAG


class BarrierCountMismatch(ValueError):
    """A participant arrived at a filling barrier with a different expected count.

    The first arrival's count is authoritative for the whole barrier round;
    a latecomer disagreeing about the count is a kernel bug that would either
    early-release the barrier or strand the earlier waiters, so it is
    surfaced instead of silently clobbering the count.
    """


@dataclass
class _BarrierEntry:
    """State of one in-progress barrier.

    ``waiting`` is an insertion-ordered dict used as an ordered set:
    participants (warps, or (core, warp) pairs) hash by identity, so a real
    ``set`` would release them in address order — nondeterministic across
    processes.  Dict order is arrival order, which is fully determined by
    the simulation.
    """

    expected: int = 0
    waiting: dict[Any, None] = field(default_factory=dict)


def _restore_entries(
    table: BarrierTable, data: list, entries: dict[int, _BarrierEntry], decode: Callable
) -> dict[int, _BarrierEntry]:
    entries.clear()
    for index, expected, waiting in data:
        entries[index] = _BarrierEntry(expected, {decode(encoded): None for encoded in waiting})
    return entries


#: In-progress barriers in arrival order.  Participants are live objects
#: (warps, or (core, warp, warp-object) triples): the owning scope's ``refs``
#: map them to plain indices and rebind them on restore.
_ENTRIES = Codec(
    lambda table, entries, encode: [
        (index, entry.expected, [encode(participant) for participant in entry.waiting])
        for index, entry in entries.items()
    ],
    _restore_entries,
)


class BarrierTable(Stateful):
    """Barrier bookkeeping for one scope (a core, or the whole processor)."""

    STATE = {"_entries": _ENTRIES, "arrivals": VALUE, "releases": VALUE, "mismatches": VALUE}
    #: Construction-time table size and the tracing hook (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"num_barriers", "on_event"})

    def __init__(self, num_barriers: int = 16):
        self.num_barriers = num_barriers
        self._entries: dict[int, _BarrierEntry] = {}
        self.arrivals = 0
        self.releases = 0
        self.mismatches = 0
        # Observability hook (attached by the owning timing core when tracing
        # the ``barrier`` channel): called exactly once per successful arrival
        # as ``on_event(index, expected, participant, released)``.
        self.on_event: Callable[[int, int, Any, list[Any]], None] | None = None

    def arrive(self, barrier_id: int, expected: int, participant: Any) -> list[Any]:
        """Register ``participant`` at ``barrier_id`` expecting ``expected`` arrivals.

        Returns the list of participants to release (empty while the barrier
        is still filling; all of them — including the current participant —
        once the expected count is reached).  A barrier with ``expected <= 1``
        releases immediately.

        The first arrival's ``expected`` is authoritative until the barrier
        releases; a later arrival with a different count raises
        :class:`BarrierCountMismatch` (after bumping ``mismatches``).
        """
        index = local_barrier_index(barrier_id) % max(self.num_barriers, 1)
        self.arrivals += 1
        entry = self._entries.get(index)
        if entry is not None and entry.expected != expected:
            self.mismatches += 1
            raise BarrierCountMismatch(
                f"barrier {index}: arrival expects {expected} participants but the "
                f"barrier is filling toward {entry.expected} "
                f"({len(entry.waiting)} already waiting)"
            )
        if expected <= 1:
            self.releases += 1
            if self.on_event is not None:
                self.on_event(index, expected, participant, [participant])
            return [participant]
        if entry is None:
            entry = _BarrierEntry(expected=expected)
            self._entries[index] = entry
        entry.waiting[participant] = None
        if len(entry.waiting) >= entry.expected:
            released = list(entry.waiting)
            del self._entries[index]
            self.releases += len(released)
            if self.on_event is not None:
                self.on_event(index, expected, participant, released)
            return released
        if self.on_event is not None:
            self.on_event(index, expected, participant, [])
        return []

    def waiting_on(self, barrier_id: int) -> list[Any]:
        """Participants currently stalled on ``barrier_id``."""
        index = local_barrier_index(barrier_id) % max(self.num_barriers, 1)
        entry = self._entries.get(index)
        return list(entry.waiting) if entry else []

    @property
    def any_waiting(self) -> bool:
        """True when at least one participant is stalled at any barrier."""
        return any(entry.waiting for entry in self._entries.values())

    def pending_barriers(self) -> list[int]:
        """Barrier indices currently holding stalled participants."""
        return sorted(index for index, entry in self._entries.items() if entry.waiting)


#: A barrier table whose owner maps participants with its
#: ``_encode_participant``/``_decode_participant`` methods.
PARTICIPANTS = child_via("_encode_participant", "_decode_participant")
