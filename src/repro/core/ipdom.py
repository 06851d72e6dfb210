"""The immediate post-dominator (IPDOM) stack (paper section 4.1.2).

Each warp owns one IPDOM stack.  ``split`` pushes up to two entries — the
original thread mask as a fall-through, and (when the predicate diverges)
the false-predicate threads together with the PC they must re-execute from —
and ``join`` pops one entry, restoring the saved mask and, for non
fall-through entries, redirecting the warp to the saved PC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.state import VALUE, Codec, Stateful


class IpdomOverflow(Exception):
    """Raised when a warp diverges deeper than the hardware stack allows."""


class IpdomUnderflow(Exception):
    """Raised when ``join`` executes with an empty stack."""


@dataclass(frozen=True)
class IpdomEntry:
    """One saved divergence context."""

    tmask: int
    pc: int | None = None  # ``None`` marks a fall-through entry

    @property
    def is_fallthrough(self) -> bool:
        return self.pc is None


#: Divergence contexts as ``(tmask, pc)`` pairs, bottom of stack first.
_ENTRIES = Codec(
    lambda stack, entries, refs: [(entry.tmask, entry.pc) for entry in entries],
    lambda stack, data, entries, refs: [IpdomEntry(tmask=tmask, pc=pc) for tmask, pc in data],
)


class IpdomStack(Stateful):
    """A bounded stack of divergence contexts."""

    STATE = {"_entries": _ENTRIES, "max_occupancy": VALUE}
    #: Construction-time depth bound (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"depth"})

    def __init__(self, depth: int = 32):
        if depth < 1:
            raise ValueError("IPDOM stack depth must be positive")
        self.depth = depth
        self._entries: list[IpdomEntry] = []
        self.max_occupancy = 0

    def push(self, tmask: int, pc: int | None = None) -> None:
        """Push a divergence context."""
        if len(self._entries) >= self.depth:
            raise IpdomOverflow(f"IPDOM stack exceeded its depth of {self.depth}")
        self._entries.append(IpdomEntry(tmask=tmask, pc=pc))
        self.max_occupancy = max(self.max_occupancy, len(self._entries))

    def pop(self) -> IpdomEntry:
        """Pop the most recent divergence context."""
        if not self._entries:
            raise IpdomUnderflow("join executed with an empty IPDOM stack")
        return self._entries.pop()

    def peek(self) -> IpdomEntry:
        if not self._entries:
            raise IpdomUnderflow("peek on an empty IPDOM stack")
        return self._entries[-1]

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries

    def clear(self) -> None:
        self._entries.clear()
