"""Typed, versioned trace event records.

One :class:`TraceEvent` is one microarchitectural occurrence on one cycle:
a scheduler decision, a scoreboard acquire, a cache bank hit, a DRAM
response.  Events are deliberately tiny and uniform — ``(cycle, core,
warp, channel, kind, payload)`` — so every sink (VCD, CSV, JSONL, an
in-memory list) and every analyzer (:mod:`repro.trace.attribution`, the
``python -m repro.trace`` CLI) speaks the same record.

The format is versioned (:data:`TRACE_VERSION`): every sink stamps the
version into its header and every parser checks it, so a trace written by
one revision of the simulator is never silently misread by another.
"""

from __future__ import annotations

from typing import Any, NamedTuple

#: Trace format version stamped into every sink header.
TRACE_VERSION = 1

#: The channels the timing stack emits on.  ``trace_channels`` spec options
#: are validated against this tuple.
CHANNELS = (
    "scheduler",  # per-core per-cycle issue/stall/masked/idle (+ stall reason)
    "scoreboard",  # hazard-register acquire/release
    "barrier",  # BarrierTable arrive/release
    "core",  # commit/redirect + synthesized fast-forward skip markers
    "icache",  # per-bank hit/miss/merge/conflict/refusal/fill
    "dcache",
    "smem",  # shared-memory bank read/write/conflict
    "l2",
    "l3",
    "dram",  # off-chip responses
)

#: ``warp`` value for events that are not warp-scoped (cache banks, DRAM).
NO_WARP = -1


class TraceEvent(NamedTuple):
    """One timestamped microarchitectural event.

    ``payload`` carries kind-specific plain data (ints/bools/strings only,
    so every sink can serialize it canonically).  Payload objects are shared
    between events: treat ``TraceEvent.payload`` as read-only.  Equality is
    structural — the determinism tests compare whole event streams with
    ``==`` — and a plain tuple of the six fields, the bus's
    :data:`TraceRecord`, equals it.
    """

    cycle: int
    core: int
    warp: int
    channel: str
    kind: str
    payload: dict[str, Any]

    def key(self) -> tuple[int, int, int, str, str, str]:
        """A canonical sortable identity (payload serialized by repr)."""
        return (*self[:5], repr(sorted(self.payload.items())))


#: What ``TraceBus.emit`` buffers and hands the sinks (a :class:`TraceEvent` is one).
TraceRecord = tuple[int, int, int, str, str, dict[str, Any]]


def expand_skips(events: list[TraceEvent]) -> list[TraceEvent]:
    """Normalize a stream for fast-forward comparison.

    Fast-forward runs mark each analytically skipped window with a
    synthesized ``core/skip`` record (so traces stay cycle-complete and a
    reader can tell "nothing happened here" from "tracing was off"), then
    replay the window's per-cycle scheduler/refusal events exactly as the
    ticked path would have emitted them.  Dropping the markers therefore
    yields the ticked stream bit-for-bit; a stable per-cycle sort keeps
    multi-core interleavings comparable.
    """
    kept = [event for event in events if not (event.channel == "core" and event.kind == "skip")]
    return sorted(kept, key=lambda event: (event.cycle, event.core))


__all__ = ["TRACE_VERSION", "CHANNELS", "NO_WARP", "TraceEvent", "TraceRecord", "expand_skips"]
