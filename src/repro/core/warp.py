"""Warp (wavefront) state: per-thread register files, PC, thread mask.

A warp is the unit the scheduler picks every cycle; all of its active
threads execute the same instruction.  Vortex keeps scalar 32-bit register
files per thread (Table 1), banked per warp in hardware; here each core
owns one numpy stack per register class, ``uint32[NUM_REGISTERS, num_warps,
num_threads]``, and a warp's register file is its ``stack[:, warp_id]``
view.  One architectural register's lane vector — the value of ``x5``
across every thread of the warp — is a contiguous row, and the same
register of warps ``a .. a+n-1`` is one contiguous ``stack[5, a:a+n]``
block.  The scalar accessors used by the functional emulator read single
elements; the vectorized emulator (:mod:`repro.core.vector_emulator`)
operates on whole rows under the thread mask, or on such a block for a run
of warps at one PC.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.common.bitutils import mask, to_uint32
from repro.common.state import CHILD, VALUE, Codec, Stateful
from repro.core.ipdom import IpdomStack

NUM_REGISTERS = 32

#: Cache of active-lane index vectors keyed by (num_threads, tmask); thread
#: masks repeat heavily (full mask, single thread, split halves), so every
#: warp shares the same immutable index arrays.
_LANE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def active_lane_indices(num_threads: int, tmask: int) -> np.ndarray:
    """Indices of the set bits of ``tmask`` as an immutable numpy vector."""
    key = (num_threads, tmask)
    lanes = _LANE_CACHE.get(key)
    if lanes is None:
        lanes = np.array(
            [t for t in range(num_threads) if (tmask >> t) & 1], dtype=np.intp
        )
        lanes.setflags(write=False)
        _LANE_CACHE[key] = lanes
    return lanes


def _restore_bytes(
    regs: RegisterFile, data: bytes, array: np.ndarray, refs: object
) -> np.ndarray:
    array[:] = np.frombuffer(data, dtype=np.uint32).reshape(array.shape)
    return array


#: One register class as raw little-endian bytes, restored in place
#: (compiled lane plans hold views of the rows, and the file itself is a
#: view of its core's register stack).
_BYTES = Codec(lambda regs, array, refs: array.tobytes(), _restore_bytes)


class RegisterFile(Stateful):
    """Integer + floating-point registers for every thread of one warp.

    Storage is register-major: ``int_row(i)`` / ``fp_row(i)`` return the
    32-bit lane vector of one architectural register (a numpy view, shape
    ``(num_threads,)``).  Inside a core the two files are ``[:, warp_id]``
    views of the core's ``int_stack``/``fp_stack``; built alone, the file
    owns its arrays.  Row 0 of the integer file is the hardwired zero
    register: it is never written, so reads of the row are always zero.
    """

    STATE = {"_int_regs": _BYTES._replace(key="int"), "_fp_regs": _BYTES._replace(key="fp")}
    SNAPSHOT_EXCLUDED = frozenset({"num_threads"})

    def __init__(self, num_threads: int, *views: np.ndarray):
        self.num_threads = num_threads
        # ``views``: the (int, fp) arrays to hold the registers in, if given.
        shape = (2, NUM_REGISTERS, num_threads)
        self._int_regs, self._fp_regs = views or np.zeros(shape, dtype=np.uint32)

    # -- scalar access (functional emulator) ---------------------------------------

    def read_int(self, thread: int, index: int) -> int:
        """Read integer register ``index`` of ``thread`` (x0 reads as zero)."""
        if index == 0:
            return 0
        return int(self._int_regs[index, thread])

    def write_int(self, thread: int, index: int, value: int) -> None:
        """Write integer register ``index`` of ``thread`` (writes to x0 are dropped)."""
        if index == 0:
            return
        self._int_regs[index, thread] = to_uint32(value)

    def read_float(self, thread: int, index: int) -> int:
        """Read floating-point register ``index`` (raw binary32 bits)."""
        return int(self._fp_regs[index, thread])

    def write_float(self, thread: int, index: int, value: int) -> None:
        """Write floating-point register ``index`` (raw binary32 bits)."""
        self._fp_regs[index, thread] = to_uint32(value)

    def broadcast_int(self, index: int, value: int) -> None:
        """Write the same value to one integer register of every thread."""
        if index == 0:
            return
        self._int_regs[index] = to_uint32(value)

    # -- lane-vector access (vectorized engine) ------------------------------------

    def int_row(self, index: int) -> np.ndarray:
        """Lane vector of integer register ``index`` (mutable view; never row 0)."""
        return self._int_regs[index]

    def fp_row(self, index: int) -> np.ndarray:
        """Lane vector of floating-point register ``index`` (mutable view)."""
        return self._fp_regs[index]


class Warp(Stateful):
    """One wavefront: PC, thread mask, activity state and register files."""

    #: ``tmask`` restores through its property, which rebuilds the fields
    #: derived from the mask.
    STATE = {
        "pc": VALUE,
        "active": VALUE,
        "at_barrier": VALUE,
        "instructions": VALUE,
        "tmask": VALUE,
        "regs": CHILD,
        "ipdom": CHILD,
    }
    #: Identity/geometry, the mask-derived fields and the property's storage,
    #: and the plan caches — pure functions of program bytes and mask value,
    #: dropped with the core's decode cache after a restore (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset(
        {
            "warp_id",
            "num_threads",
            "active_count",
            "full",
            "lanes",
            "_tmask",
            "plan_cache",
            "timing_plan_cache",
        }
    )

    def __init__(self, warp_id: int, num_threads: int, ipdom_depth: int = 32, *views: np.ndarray):
        self.warp_id = warp_id
        self.num_threads = num_threads
        self.pc = 0
        self.active = False
        #: ``views``: this warp's slices of its core's register stacks, if given.
        self.regs = RegisterFile(num_threads, *views)
        self.ipdom = IpdomStack(depth=ipdom_depth)
        #: set while the warp waits at a barrier; cleared by the barrier table.
        self.at_barrier = False
        #: cumulative retired instruction count (warp-level).
        self.instructions = 0
        #: per-PC execution plans built by the vectorized engine (cleared on
        #: decode-cache invalidation); a plan executes one instruction.
        self.plan_cache: dict[int, Callable[[Warp], None]] = {}
        #: per-PC timing plans built by the vectorized cycle-level engine
        #: (architectural plan + the per-instruction facts the timing model
        #: charges); cleared together with :attr:`plan_cache`.
        self.timing_plan_cache: dict[int, object] = {}
        self.tmask = 0

    # -- thread mask helpers -----------------------------------------------------

    @property
    def tmask(self) -> int:
        return self._tmask

    @tmask.setter
    def tmask(self, value: int) -> None:
        self._tmask = value
        self.active_count = bin(value).count("1")
        self.full = value == mask(self.num_threads)
        self.lanes = active_lane_indices(self.num_threads, value)

    @property
    def full_mask(self) -> int:
        """Mask with every hardware thread of the warp enabled."""
        return mask(self.num_threads)

    def active_threads(self) -> list[int]:
        """Indices of the currently active threads."""
        return [t for t in range(self.num_threads) if (self.tmask >> t) & 1]

    def num_active_threads(self) -> int:
        return bin(self.tmask & self.full_mask).count("1")

    def set_thread_count(self, count: int) -> None:
        """Implement ``tmc count``: activate the ``count`` lowest threads."""
        count = max(0, min(count, self.num_threads))
        self.tmask = mask(count)
        if count == 0:
            self.active = False

    def set_tmask(self, tmask: int) -> None:
        """Set an explicit thread mask (used by split/join)."""
        self.tmask = tmask & self.full_mask
        if self.tmask == 0:
            self.active = False

    # -- lifecycle ------------------------------------------------------------------

    def spawn(self, pc: int, tmask: int | None = None) -> None:
        """Activate the warp at ``pc`` (used at reset and by ``wspawn``)."""
        self.pc = pc
        self.tmask = self.full_mask if tmask is None else (tmask & self.full_mask)
        self.active = True
        self.at_barrier = False
        self.ipdom.clear()

    def halt(self) -> None:
        """Deactivate the warp."""
        self.active = False
        self.tmask = 0

    @property
    def schedulable(self) -> bool:
        """True when the warp can be picked by the scheduler."""
        return self.active and not self.at_barrier and self._tmask != 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Warp(id={self.warp_id}, pc={self.pc:#x}, tmask={self.tmask:#x}, "
            f"active={self.active}, at_barrier={self.at_barrier})"
        )
