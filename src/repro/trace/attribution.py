"""Stall attribution and counter reconciliation over trace streams.

Two consumers drive this module:

* ``benchmarks/scheduler_forensics.py`` folds a trace into per-policy
  per-warp stall/switch breakdowns (:func:`attribute_stalls`) to explain
  *why* scheduler policies differ — the scheduler channel emits exactly
  one event per core per cycle, so the per-kind deltas between two
  policies sum to their cycle-count gap exactly.
* The trace tests cross-check a full (unfiltered) event stream
  against the simulator's own aggregate counters (:func:`reconcile`):
  every per-reason stall event total must equal the corresponding
  ``PerfCounters`` value bit-exactly.  A non-empty mismatch list means
  the instrumentation and the counters have drifted apart.
"""

from __future__ import annotations

from typing import Any

from repro.trace.events import TraceEvent

#: Channels whose events reconcile against ``NonBlockingCache`` counters.
CACHE_CHANNELS = ("icache", "dcache", "l2", "l3")


def summarize(events: list[TraceEvent]) -> dict[str, Any]:
    """Compact overview of a trace: span, population, per-channel kinds."""
    per_channel: dict[str, dict[str, int]] = {}
    cores: set[int] = set()
    warps: set[int] = set()
    first: int | None = None
    last: int | None = None
    for event in events:
        bucket = per_channel.setdefault(event.channel, {})
        bucket[event.kind] = bucket.get(event.kind, 0) + 1
        if event.core >= 0:
            cores.add(event.core)
        if event.warp >= 0:
            warps.add(event.warp)
        if first is None or event.cycle < first:
            first = event.cycle
        if last is None or event.cycle > last:
            last = event.cycle
    return {
        "events": len(events),
        "cycles": [first, last],
        "cores": sorted(cores),
        "warps": sorted(warps),
        "channels": {
            channel: dict(sorted(kinds.items()))
            for channel, kinds in sorted(per_channel.items())
        },
    }


def attribute_stalls(events: list[TraceEvent]) -> dict[int, dict[str, Any]]:
    """Fold the scheduler channel into per-core, per-warp breakdowns.

    The scheduler channel carries exactly one event per core per cycle
    (``issue`` / ``stall`` with a reason / ``masked`` / ``idle``), so each
    core's ``cycles`` here equals its cycle counter and the per-kind
    counts partition it.  ``switches`` counts consecutive issues from
    different warps — the context-switch traffic a policy induces.
    """
    per_core: dict[int, dict[str, Any]] = {}
    last_issued: dict[int, int] = {}
    for event in events:
        if event.channel != "scheduler":
            continue
        core = per_core.setdefault(
            event.core,
            {
                "cycles": 0,
                "issues": 0,
                "switches": 0,
                "idle": 0,
                "masked": 0,
                "stalls": {},
                "warps": {},
            },
        )
        core["cycles"] += 1
        if event.kind == "issue":
            core["issues"] += 1
            previous = last_issued.get(event.core)
            if previous is not None and previous != event.warp:
                core["switches"] += 1
            last_issued[event.core] = event.warp
            warp = core["warps"].setdefault(event.warp, {"issues": 0, "stalls": {}})
            warp["issues"] += 1
        elif event.kind == "stall":
            reason = event.payload.get("reason", "unknown")
            core["stalls"][reason] = core["stalls"].get(reason, 0) + 1
            warp = core["warps"].setdefault(event.warp, {"issues": 0, "stalls": {}})
            warp["stalls"][reason] = warp["stalls"].get(reason, 0) + 1
        elif event.kind == "idle":
            core["idle"] += 1
        else:
            core["masked"] += 1
    return per_core


def observed_counters(events: list[TraceEvent]) -> dict[str, dict[str, int]]:
    """Aggregate an event stream into the counter shapes :func:`reconcile`
    compares (``core0/scheduler`` → ``{"issue": n, "stall/scoreboard": n,
    ...}``).  Synthesized ``core/skip`` markers are not occurrences and
    are dropped."""
    observed: dict[str, dict[str, int]] = {}

    def bump(key: str, kind: str) -> None:
        bucket = observed.setdefault(key, {})
        bucket[kind] = bucket.get(kind, 0) + 1

    for event in events:
        channel = event.channel
        key = f"core{event.core}/{channel}" if event.core >= 0 else channel
        kind = event.kind
        if channel == "core":
            if kind == "skip":
                continue
            bump(key, kind)
        elif channel == "scheduler":
            if kind == "stall":
                bump(key, f"stall/{event.payload.get('reason', 'unknown')}")
            else:
                bump(key, kind)
            bump(key, "total")
        elif channel == "barrier":
            bump(key, "arrive-stalled" if not event.payload.get("released") else "arrive-released")
        elif channel == "smem":
            bump(key, kind)
            bump(key, "total")
        elif channel in CACHE_CHANNELS:
            bump(key, kind)
            if kind != "fill":
                bump(key, "total")
            if kind == "miss" and event.payload.get("merge"):
                bump(key, "merge")
        else:
            bump(key, kind)
    return observed


def collect_reconciliation_counters(processor: Any) -> dict[str, dict[str, int]]:
    """Read the live aggregate counters a full trace must reproduce.

    Takes the live ``TimingProcessor`` (not an ``ExecutionReport``): the
    scheduler, shared-memory, scoreboard and per-bank MSHR counters this
    needs are not all surfaced in report payloads.
    """
    expected: dict[str, dict[str, int]] = {}
    for core in processor.cores:
        cid = core.core_id
        expected[f"core{cid}/scheduler"] = {
            "issue": core.perf.get("instructions"),
            "stall/scoreboard": core.perf.get("scoreboard_stalls"),
            "stall/ibuffer": core.perf.get("ifetch_misses"),
            "idle": core.perf.get("idle_cycles"),
            "total": core.clock.now,
        }
        expected[f"core{cid}/scoreboard"] = {
            "acquire": core.scoreboard.perf.get("reservations"),
        }
        expected[f"core{cid}/barrier"] = {
            "arrive-stalled": core.func.perf.get("barrier_stalls"),
        }
        expected[f"core{cid}/core"] = {
            "commit": core.perf.get("mem_ops_completed"),
            "redirect": core.perf.get("taken_branches"),
        }
        expected[f"core{cid}/smem"] = {
            "conflict": core.smem.perf.get("bank_conflicts"),
            "read": core.smem.perf.get("reads"),
            "write": core.smem.perf.get("writes"),
            "total": core.smem.perf.get("attempts"),
        }
    memsys = processor.memsys
    caches: list[tuple[str, int, Any]] = []
    for cid, cache in enumerate(memsys.icaches):
        caches.append(("icache", cid, cache))
    for cid, cache in enumerate(memsys.dcaches):
        caches.append(("dcache", cid, cache))
    for cache in memsys.l2:
        if cache is not None:
            caches.append(("l2", -1, cache))
    if memsys.l3 is not None:
        caches.append(("l3", -1, memsys.l3))
    for channel, cid, cache in caches:
        key = f"core{cid}/{channel}" if cid >= 0 else channel
        bucket = expected.setdefault(
            key,
            {
                "conflict": 0,
                "mshr-stall": 0,
                "refusal": 0,
                "hit": 0,
                "miss": 0,
                "fill": 0,
                "merge": 0,
                "total": 0,
            },
        )
        bucket["conflict"] += cache.perf.get("bank_conflicts")
        bucket["mshr-stall"] += cache.perf.get("mshr_stalls")
        bucket["refusal"] += cache.perf.get("memq_stalls")
        bucket["hit"] += cache.perf.get("read_hits") + cache.perf.get("write_hits")
        bucket["miss"] += cache.perf.get("read_misses") + cache.perf.get("write_misses")
        bucket["fill"] += cache.perf.get("fills")
        bucket["merge"] += sum(bank.mshr.merged for bank in cache.banks)
        bucket["total"] += cache.perf.get("attempts")
    expected["dram"] = {"response": memsys.dram.perf.get("responses")}
    return expected


def reconcile(events: list[TraceEvent], processor: Any) -> list[str]:
    """Cross-check a *full, unfiltered* trace against the live counters.

    Returns human-readable mismatch lines (empty list == bit-exact).
    A channel-filtered trace will legitimately under-count — reconcile
    only streams recorded without ``trace_channels`` restrictions.
    """
    expected = collect_reconciliation_counters(processor)
    observed = observed_counters(events)
    mismatches = []
    for key, bucket in sorted(expected.items()):
        seen = observed.get(key, {})
        for kind, value in sorted(bucket.items()):
            got = seen.get(kind, 0)
            if got != value:
                mismatches.append(f"{key}: {kind} events {got} != counter {value}")
    return mismatches


__all__ = [
    "CACHE_CHANNELS",
    "summarize",
    "attribute_stalls",
    "observed_counters",
    "collect_reconciliation_counters",
    "reconcile",
]
