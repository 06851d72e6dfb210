"""Register scoreboard.

The in-order pipeline issues at most one instruction per warp per cycle and
must not issue an instruction whose source or destination registers are
still owned by an older in-flight instruction of the same warp.  The
scoreboard tracks busy registers per (warp, register file) and is also the
structure whose size the synthesis area model charges per wavefront
(section 6.2.1 lists it among the per-wavefront costs).

A warp's busy registers are one integer bitmask — bit ``register`` for the
integer file, ``32 + register`` for the floating-point file, the hardwired
``x0`` never set — so the per-issue hazard check is a single ``&`` against
the instruction's register mask (:meth:`Scoreboard.mask_of`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.common.perf import PerfCounters
from repro.common.state import CHILD, Codec, Stateful

#: Register-file selectors (the checkpoint wire names a register by these).
INT_REGS = "x"
FP_REGS = "f"

_FP_SHIFT = 32


def _bit(register: int, floating: bool) -> int:
    """The busy-mask bit of one register (0 for the hardwired ``x0``)."""
    return 1 << (register + _FP_SHIFT) if floating else (1 << register) & ~1


def _encode_busy(scoreboard: Scoreboard, busy: list[int], refs: object) -> dict:
    return {
        warp_id: sorted(
            (FP_REGS if bit >= _FP_SHIFT else INT_REGS, bit % _FP_SHIFT)
            for bit in range(mask.bit_length())
            if mask >> bit & 1
        )
        for warp_id, mask in enumerate(busy)
    }


def _restore_busy(
    scoreboard: Scoreboard, data: dict, busy: list[int], refs: object
) -> list[int]:
    for warp_id in range(len(busy)):
        busy[warp_id] = Scoreboard.mask_of(
            (register, kind == FP_REGS) for kind, register in data[warp_id]
        )
    return busy


#: The busy registers per warp as sorted ``(register file, register)``
#: pairs: the wire names registers, whatever the in-memory bitmasks.
_BUSY = Codec(_encode_busy, _restore_busy)


class Scoreboard(Stateful):
    """Tracks in-flight destination registers per warp."""

    STATE = {"_busy": _BUSY, "perf": CHILD}
    #: Construction-time warp count (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"num_warps"})

    def __init__(self, num_warps: int):
        self.num_warps = num_warps
        self._busy: list[int] = [0] * num_warps
        self.perf = PerfCounters("scoreboard")

    @staticmethod
    def mask_of(registers: Iterable[tuple[int, bool]]) -> int:
        """Bitmask of ``(register, floating)`` pairs (``x0`` contributes nothing)."""
        mask = 0
        for register, floating in registers:
            mask |= _bit(register, floating)
        return mask

    def is_busy(self, warp_id: int, register: int, floating: bool = False) -> bool:
        """True when ``register`` has a pending writeback for ``warp_id``."""
        return bool(self._busy[warp_id] & _bit(register, floating))

    def any_busy(self, warp_id: int, registers: int) -> bool:
        """True when any register of the :meth:`mask_of` mask ``registers`` is busy."""
        return bool(self._busy[warp_id] & registers)

    def reserve(self, warp_id: int, register: int, floating: bool = False) -> None:
        """Mark a destination register as having a pending writeback."""
        bit = _bit(register, floating)
        if bit:
            self._busy[warp_id] |= bit
            self.perf.incr("reservations")

    def release(self, warp_id: int, register: int, floating: bool = False) -> None:
        """Clear a pending writeback."""
        self._busy[warp_id] &= ~_bit(register, floating)

    def busy_count(self, warp_id: int) -> int:
        """Number of registers with pending writebacks for ``warp_id``."""
        return self._busy[warp_id].bit_count()

    def clear(self) -> None:
        self._busy = [0] * self.num_warps
