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

``policy`` selects which selection policy ``select`` is — the policy
method, bound as an instance attribute at construction so a selection is
one call (the design-space axis of
:data:`repro.common.config.SCHEDULER_POLICIES`):

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
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, COPY, VALUE, Stateful


class WavefrontScheduler(Stateful):
    """Wavefront scheduler for one core (policy-selectable)."""

    #: Everything the policies consult: a restored scheduler replays
    #: selections identically.
    STATE = {
        "active_mask": VALUE,
        "stalled_mask": VALUE,
        "barrier_mask": VALUE,
        "visible_mask": VALUE,
        "_last_selected": VALUE,
        "_issue_stamps": COPY,
        "_next_stamp": VALUE,
        "_last_lines": COPY,
        "_current_line": VALUE,
        "_hazard_mask": VALUE,
        "perf": CHILD,
    }
    #: Construction-time geometry and policy wiring (vxlint VX007): ``select``
    #: is the bound policy method, a pure function of ``policy``; ``_counters``
    #: aliases ``perf._counters`` (serialized under the ``"perf"`` key).
    SNAPSHOT_EXCLUDED = frozenset({"num_warps", "_all_warps", "policy", "select", "_counters"})

    def __init__(self, num_warps: int, policy: str = "round-robin"):
        if policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown scheduler policy {policy!r}; available: {sorted(SCHEDULER_POLICIES)}"
            )
        self.num_warps = num_warps
        self._all_warps = (1 << num_warps) - 1  # the schedulable mask's bound
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
        #: Pick the wavefront to fetch this cycle, or ``None`` if none is ready.
        self.select = {
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

    def note_hazard(self, warp_id: int) -> None:
        """The core's issue attempt for ``warp_id`` hit a scoreboard hazard."""
        self._hazard_mask |= 1 << warp_id

    def note_issued(self, warp_id: int) -> None:
        """``warp_id`` issued an instruction (clears its hazard hint)."""
        self._hazard_mask &= ~(1 << warp_id)

    def note_memory_issue(self, warp_id: int, line: int) -> None:
        """``warp_id`` issued a memory operation on D$ line ``line``."""
        self._last_lines[warp_id] = line
        self._current_line = line

    # -- selection -------------------------------------------------------------------

    def stalls_ahead(self, ready: int, stalls: int) -> int:
        """How many selects in a row pick a wavefront of ``stalls`` while the
        schedulable mask stays ``ready`` (with one outside ``stalls``), worked
        out without selecting; 0 under the policies other than round-robin
        (loose round-robin picks as a visible set drained and refilled would)."""
        two_level = self.policy == "round-robin"
        if not two_level and self.policy != "loose-round-robin":
            return 0
        visible = self.visible_mask & ready if two_level else 0
        last, picks = self._last_selected, 0
        while True:
            visible = visible or ready
            start = 0 if last is None else (last + 1) % self.num_warps
            ahead = visible >> start
            first = ahead or visible
            last = (first & -first).bit_length() - 1 + (start if ahead else 0)
            if not (stalls >> last) & 1:
                return picks
            visible &= ~(1 << last)
            picks += 1

    def _schedulable_mask(self) -> int:
        """Schedulable wavefronts (each policy inlines it: one call a select)."""
        return self.active_mask & ~(self.stalled_mask | self.barrier_mask) & self._all_warps

    def _select_round_robin(self) -> int | None:
        """The hierarchical two-level policy: wavefronts are drained from the
        visible mask one per cycle; when it is empty it is refilled from the
        schedulable wavefronts."""
        ready = self.active_mask & ~(self.stalled_mask | self.barrier_mask) & self._all_warps
        # Wavefronts that became unschedulable leave the working set.
        visible = self.visible_mask & ready
        if not visible:
            self.visible_mask = visible = ready
            if not visible:
                self._counters["idle_cycles"] += 1
                return None
            self._counters["refills"] += 1
        # Round-robin: the first visible wavefront from ``start`` on, wrapping.
        start = 0 if self._last_selected is None else (self._last_selected + 1) % self.num_warps
        ahead = visible >> start
        first = ahead or visible
        warp_id = (first & -first).bit_length() - 1 + (start if ahead else 0)
        self.visible_mask = visible & ~(1 << warp_id)
        self._last_selected = warp_id
        self._counters["selections"] += 1
        return warp_id

    def _select_greedy_then_oldest(self) -> int | None:
        """Greedy-then-oldest: stick with the current wavefront until it
        stalls, then switch to the least-recently-issued ready one."""
        ready = self.active_mask & ~(self.stalled_mask | self.barrier_mask) & self._all_warps
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
                (w for w in range(self.num_warps) if (ready >> w) & 1),
                key=lambda w: (stamps[w], w),
            )
            self._counters["switches"] += 1
        self._issue_stamps[warp_id] = self._next_stamp
        self._next_stamp += 1
        self._last_selected = warp_id
        self._counters["selections"] += 1
        return warp_id

    def _select_loose_round_robin(self) -> int | None:
        """Loose round-robin: the next ready wavefront after the last issued
        one, with no two-level visible working set."""
        ready = self.active_mask & ~(self.stalled_mask | self.barrier_mask) & self._all_warps
        if not ready:
            self._counters["idle_cycles"] += 1
            return None
        start = 0 if self._last_selected is None else (self._last_selected + 1) % self.num_warps
        ahead = ready >> start  # the first ready wavefront from ``start`` on, wrapping
        first = ahead or ready
        warp_id = (first & -first).bit_length() - 1 + (start if ahead else 0)
        self._last_selected = warp_id
        self._counters["selections"] += 1
        return warp_id

    def _select_cache_locality(self) -> int | None:
        """Cache-locality-aware: least-recently-issued ready wavefront on the
        current D$ line, avoiding wavefronts with a pending hazard hint.

        The hazard exclusion is the load-bearing half (the trace forensics
        attribute nearly the whole greedy-then-oldest gap to re-selecting
        scoreboard-blocked warps); the line affinity then keeps consecutive
        issues on the same cache line when several warps qualify.
        """
        ready = self.active_mask & ~(self.stalled_mask | self.barrier_mask) & self._all_warps
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
    def all_stalled(self) -> bool:
        """True when wavefronts exist but none can be scheduled."""
        return self.active_mask != 0 and self._schedulable_mask() == 0
