"""The wavefront scheduler (paper section 4.1.1).

The scheduler keeps four wavefront masks:

* ``active``  — wavefronts that exist (spawned and not yet terminated),
* ``stalled`` — wavefronts that must not be scheduled temporarily (waiting
  on a long-latency operation or on backpressure),
* ``barrier`` — wavefronts waiting at a barrier,
* ``visible`` — the working set of the hierarchical (two-level) scheduling
  policy: each cycle one wavefront is picked from the visible mask and
  removed; when the visible mask empties it is refilled from the active
  wavefronts that are neither stalled nor at a barrier.

``policy`` selects which selection policy :meth:`select` implements (the
design-space axis of :data:`repro.common.config.SCHEDULER_POLICIES`):

* ``"round-robin"`` — the paper's hierarchical two-level policy above,
* ``"greedy-then-oldest"`` — keep issuing the last-selected wavefront while
  it stays schedulable, otherwise fall back to the least-recently-issued
  ready wavefront,
* ``"loose-round-robin"`` — plain round-robin over the schedulable mask,
  with no two-level working set: a wavefront that becomes ready is eligible
  immediately instead of waiting for the next refill.
* ``"cache-locality"`` — informed by the trace forensics on the
  greedy-then-oldest pathology: prefer the least-recently-issued ready
  wavefront whose last memory access touched the current D$ line, and skip
  wavefronts whose previous issue attempt hit a scoreboard hazard (greedy
  burns the whole memory latency re-selecting exactly those).  The timing
  core feeds the policy through the :meth:`~WavefrontScheduler.note_hazard`
  / :meth:`~WavefrontScheduler.note_issued` /
  :meth:`~WavefrontScheduler.note_memory_issue` hooks, which update cheap
  bit-mask state unconditionally so every policy sees identical inputs.

All policies are fully deterministic.
"""

from __future__ import annotations

from repro.common.config import SCHEDULER_POLICIES
from repro.common.perf import PerfCounters, hot_path


class WavefrontScheduler:
    """Wavefront scheduler for one core (policy-selectable)."""

    #: Counter schema (vxlint VX003).
    COUNTERS = frozenset({"idle_cycles", "refills", "selections", "switches"})

    #: Construction-time policy wiring (vxlint VX007): ``_select`` is the
    #: bound policy method, a pure function of ``policy``; ``_counters``
    #: aliases ``perf._counters`` (serialized under the ``"perf"`` key).
    SNAPSHOT_EXCLUDED = frozenset({"num_warps", "policy", "_select", "_counters"})

    def __init__(self, num_warps: int, policy: str = "round-robin"):
        if policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown scheduler policy {policy!r}; available: {sorted(SCHEDULER_POLICIES)}"
            )
        self.num_warps = num_warps
        self.policy = policy
        self.active_mask = 0
        self.stalled_mask = 0
        self.barrier_mask = 0
        self.visible_mask = 0
        self.perf = PerfCounters("scheduler")
        self._counters = self.perf._counters  # prebound: charged once per select
        self._last_selected: int | None = None
        # Last-issue order for greedy-then-oldest: stamp[w] is the monotonic
        # selection index warp w last issued at (0 = never issued, so cold
        # warps are oldest and ties break toward the lowest warp id).
        self._issue_stamps: list[int] = [0] * num_warps
        self._next_stamp = 1
        # Locality/hazard hints maintained by the note_* hooks (consulted
        # only by the cache-locality policy, updated under every policy so
        # switching policies never changes the hook-call sequence).
        self._last_lines: list[int] = [-1] * num_warps
        self._current_line = -1
        self._hazard_mask = 0
        self._select = {
            "round-robin": self._select_round_robin,
            "greedy-then-oldest": self._select_greedy_then_oldest,
            "loose-round-robin": self._select_loose_round_robin,
            "cache-locality": self._select_cache_locality,
        }[policy]

    # -- mask maintenance -----------------------------------------------------------

    def set_active(self, warp_id: int, active: bool) -> None:
        """Mark a wavefront as existing / terminated."""
        bit = 1 << warp_id
        if active:
            self.active_mask |= bit
        else:
            self.active_mask &= ~bit
            self.visible_mask &= ~bit

    def set_stalled(self, warp_id: int, stalled: bool) -> None:
        """Stall / release a wavefront (long-latency operation outstanding)."""
        bit = 1 << warp_id
        if stalled:
            self.stalled_mask |= bit
            self.visible_mask &= ~bit
        else:
            self.stalled_mask &= ~bit

    def set_at_barrier(self, warp_id: int, waiting: bool) -> None:
        """Mark / clear a wavefront as waiting at a barrier."""
        bit = 1 << warp_id
        if waiting:
            self.barrier_mask |= bit
            self.visible_mask &= ~bit
        else:
            self.barrier_mask &= ~bit

    def set_masks(self, active_mask: int, stalled_mask: int, barrier_mask: int) -> None:
        """Replace all three masks in one call (the per-cycle resync path).

        Equivalent to calling the individual setters for every wavefront:
        wavefronts that became unschedulable leave the visible working set,
        which is exactly the pruning :meth:`select` performs.
        """
        self.active_mask = active_mask
        self.stalled_mask = stalled_mask
        self.barrier_mask = barrier_mask
        self.visible_mask &= active_mask & ~stalled_mask & ~barrier_mask

    # -- issue-feedback hooks ---------------------------------------------------------

    @hot_path
    def note_hazard(self, warp_id: int) -> None:
        """The core's issue attempt for ``warp_id`` hit a scoreboard hazard."""
        self._hazard_mask |= 1 << warp_id

    @hot_path
    def note_issued(self, warp_id: int) -> None:
        """``warp_id`` issued an instruction (clears its hazard hint)."""
        self._hazard_mask &= ~(1 << warp_id)

    @hot_path
    def note_memory_issue(self, warp_id: int, line: int) -> None:
        """``warp_id`` issued a memory operation on D$ line ``line``."""
        self._last_lines[warp_id] = line
        self._current_line = line

    # -- checkpoint/restore -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Serialize every selection-relevant field.

        The policy dispatch (``_select``) is constructor-derived; everything
        the three policies consult — the four masks, the last-selected
        wavefront and the greedy-then-oldest issue stamps — is captured so a
        restored scheduler replays selections identically.
        """
        return {
            "active_mask": self.active_mask,
            "stalled_mask": self.stalled_mask,
            "barrier_mask": self.barrier_mask,
            "visible_mask": self.visible_mask,
            "last_selected": self._last_selected,
            "issue_stamps": list(self._issue_stamps),
            "next_stamp": self._next_stamp,
            "last_lines": list(self._last_lines),
            "current_line": self._current_line,
            "hazard_mask": self._hazard_mask,
            "perf": self.perf.snapshot(),
        }

    def restore(self, payload: dict) -> None:
        """Restore scheduler state from a :meth:`snapshot` payload."""
        self.active_mask = payload["active_mask"]
        self.stalled_mask = payload["stalled_mask"]
        self.barrier_mask = payload["barrier_mask"]
        self.visible_mask = payload["visible_mask"]
        self._last_selected = payload["last_selected"]
        self._issue_stamps = list(payload["issue_stamps"])
        self._next_stamp = payload["next_stamp"]
        self._last_lines = list(payload["last_lines"])
        self._current_line = payload["current_line"]
        self._hazard_mask = payload["hazard_mask"]
        self.perf.restore(payload["perf"])

    # -- selection -------------------------------------------------------------------

    @hot_path
    def _schedulable_mask(self) -> int:
        all_warps = (1 << self.num_warps) - 1
        return self.active_mask & ~self.stalled_mask & ~self.barrier_mask & all_warps

    def select(self) -> int | None:
        """Pick the wavefront to fetch this cycle, or ``None`` if none is ready."""
        return self._select()

    @hot_path
    def _select_round_robin(self) -> int | None:
        """The hierarchical two-level policy: wavefronts are drained from the
        visible mask one per cycle; when it is empty it is refilled from the
        schedulable wavefronts."""
        ready = self._schedulable_mask()
        # Wavefronts that became unschedulable leave the working set.
        visible = self.visible_mask & ready
        if not visible:
            self.visible_mask = visible = ready
            if not visible:
                self._counters["idle_cycles"] += 1
                return None
            self._counters["refills"] += 1
        # Round-robin starting after the last selected wavefront.
        start = 0 if self._last_selected is None else (self._last_selected + 1) % self.num_warps
        for offset in range(self.num_warps):
            warp_id = (start + offset) % self.num_warps
            if (visible >> warp_id) & 1:
                self.visible_mask = visible & ~(1 << warp_id)
                self._last_selected = warp_id
                self._counters["selections"] += 1
                return warp_id
        return None  # pragma: no cover - unreachable, mask was non-zero

    @hot_path
    def _select_greedy_then_oldest(self) -> int | None:
        """Greedy-then-oldest: stick with the current wavefront until it
        stalls, then switch to the least-recently-issued ready one."""
        ready = self._schedulable_mask()
        if not ready:
            self._counters["idle_cycles"] += 1
            return None
        last = self._last_selected
        if last is not None and (ready >> last) & 1:
            warp_id = last
        else:
            # The genexp/lambda only run on the *switch* path (greedy keeps
            # reissuing the same wavefront on the common path), so the
            # allocation is per-switch, not per-cycle.
            stamps = self._issue_stamps
            warp_id = min(
                (w for w in range(self.num_warps) if (ready >> w) & 1),  # vxlint: disable=VX004
                key=lambda w: (stamps[w], w),  # vxlint: disable=VX004
            )
            self._counters["switches"] += 1
        self._issue_stamps[warp_id] = self._next_stamp
        self._next_stamp += 1
        self._last_selected = warp_id
        self._counters["selections"] += 1
        return warp_id

    @hot_path
    def _select_loose_round_robin(self) -> int | None:
        """Loose round-robin: the next ready wavefront after the last issued
        one, with no two-level visible working set."""
        ready = self._schedulable_mask()
        if not ready:
            self._counters["idle_cycles"] += 1
            return None
        start = 0 if self._last_selected is None else (self._last_selected + 1) % self.num_warps
        for offset in range(self.num_warps):
            warp_id = (start + offset) % self.num_warps
            if (ready >> warp_id) & 1:
                self._last_selected = warp_id
                self._counters["selections"] += 1
                return warp_id
        return None  # pragma: no cover - unreachable, mask was non-zero

    @hot_path
    def _select_cache_locality(self) -> int | None:
        """Cache-locality-aware: least-recently-issued ready wavefront on the
        current D$ line, avoiding wavefronts with a pending hazard hint.

        The hazard exclusion is the load-bearing half (the trace forensics
        attribute nearly the whole greedy-then-oldest gap to re-selecting
        scoreboard-blocked warps); the line affinity then keeps consecutive
        issues on the same cache line when several warps qualify.
        """
        ready = self._schedulable_mask()
        if not ready:
            self._counters["idle_cycles"] += 1
            return None
        pool = ready & ~self._hazard_mask
        if not pool:
            pool = ready
        stamps = self._issue_stamps
        lines = self._last_lines
        line = self._current_line
        best = -1
        best_stamp = 0
        if line >= 0:
            for warp_id in range(self.num_warps):
                if (pool >> warp_id) & 1 and lines[warp_id] == line:
                    if best < 0 or stamps[warp_id] < best_stamp:
                        best = warp_id
                        best_stamp = stamps[warp_id]
        if best < 0:
            for warp_id in range(self.num_warps):
                if (pool >> warp_id) & 1:
                    if best < 0 or stamps[warp_id] < best_stamp:
                        best = warp_id
                        best_stamp = stamps[warp_id]
        if best != self._last_selected:
            self._counters["switches"] += 1
        self._issue_stamps[best] = self._next_stamp
        self._next_stamp += 1
        self._last_selected = best
        self._counters["selections"] += 1
        return best

    # -- inspection -------------------------------------------------------------------

    @property
    def any_active(self) -> bool:
        return self.active_mask != 0

    @property
    def all_stalled(self) -> bool:
        """True when wavefronts exist but none can be scheduled."""
        return self.active_mask != 0 and self._schedulable_mask() == 0
