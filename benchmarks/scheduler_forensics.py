"""Scheduler-policy stall forensics: *why* the policy sweep rows differ.

Runs the ``scheduler_policy_sweep`` scenario (sgemm, 8 wavefronts x 4
threads, one dcache port, 100-cycle memory) under every scheduler policy
with the trace bus recording the scheduler channel, folds each event
stream into a per-kind cycle breakdown
(:func:`repro.trace.attribution.attribute_stalls`), and writes the
committed forensics report (``FORENSICS_scheduler.md``).

The scheduler channel carries exactly one event per core per cycle, so
each policy's breakdown *partitions* its cycle count and the per-kind
deltas between two policies sum to their cycle gap exactly — the report's
gap-attribution table accounts for 100% of the greedy-then-oldest vs
round-robin gap by construction.  Every number is deterministic (vxlint
VX001), so the report is committed and regenerated, not measured in CI.

Run with::

    PYTHONPATH=src python benchmarks/scheduler_forensics.py [--out PATH]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from repro.common.config import SCHEDULER_POLICIES, CacheConfig, MemoryConfig, VortexConfig
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice
from repro.trace.attribution import attribute_stalls
from repro.trace.events import expand_skips

#: The policy-sweep scenario (``POLICY_SWEEP_CYCLES`` in tests/test_scheduler_policy.py).
KERNEL, SIZE, WARPS, THREADS = "sgemm", 24 * 24, 8, 4

#: The two policies whose gap the report attributes.
BASELINE_POLICY = "round-robin"
SUBJECT_POLICY = "greedy-then-oldest"

#: Breakdown components in display order: (label, extractor).
COMPONENTS = (
    ("issue", lambda b: b["issues"]),
    ("stall:scoreboard", lambda b: b["stalls"].get("scoreboard", 0)),
    ("stall:ibuffer", lambda b: b["stalls"].get("ibuffer", 0)),
    ("masked (memory/barrier)", lambda b: b["masked"]),
    ("idle", lambda b: b["idle"]),
)


def _config(policy: str) -> VortexConfig:
    return (
        VortexConfig(
            dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
            memory=MemoryConfig(latency=100, bandwidth=1),
        )
        .with_warps_threads(WARPS, THREADS)
        .with_scheduler_policy(policy)
    )


def run_policy(policy: str) -> dict[str, Any]:
    """One traced run; returns the core-0 scheduler breakdown + cycle count."""
    device = VortexDevice(
        _config(policy), driver="simx:trace=mem,trace_channels=scheduler"
    )
    run = KERNELS[KERNEL]().run(device, size=SIZE)
    if not run.passed:
        raise AssertionError(f"{KERNEL} failed verification under policy {policy}")
    events = expand_skips(list(device.driver.trace_sink.events))
    breakdown = attribute_stalls(events)[0]
    if breakdown["cycles"] != run.report.cycles:
        raise AssertionError(
            f"{policy}: scheduler events cover {breakdown['cycles']} cycles, "
            f"report says {run.report.cycles} — the channel must partition cycles"
        )
    parts = breakdown["issues"] + breakdown["idle"] + breakdown["masked"]
    parts += sum(breakdown["stalls"].values())
    if parts != breakdown["cycles"]:
        raise AssertionError(f"{policy}: breakdown does not partition the cycle count")
    breakdown["report_cycles"] = run.report.cycles
    breakdown["ipc"] = round(run.report.ipc, 4)
    return breakdown


def render_report(breakdowns: dict[str, dict[str, Any]]) -> str:
    base = breakdowns[BASELINE_POLICY]
    subject = breakdowns[SUBJECT_POLICY]
    gap = subject["cycles"] - base["cycles"]

    lines = [
        "# Scheduler-policy stall forensics",
        "",
        "Deterministic trace-bus attribution for the scheduler-policy sweep",
        f"scenario pinned in `tests/test_scheduler_policy.py`: **{KERNEL}** size={SIZE}, "
        f"{WARPS} wavefronts x {THREADS} threads, 16KB/4-bank/1-port dcache, "
        "100-cycle single-word memory.",
        "",
        "Regenerate with "
        "`PYTHONPATH=src python benchmarks/scheduler_forensics.py` — every",
        "number is a deterministic event count (one scheduler event per core",
        "per cycle), not a wall-clock measurement.",
        "",
        "## Per-policy cycle breakdown",
        "",
        "| policy | cycles | IPC | issue | stall:scoreboard | stall:ibuffer"
        " | masked | idle | switches |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for policy, b in breakdowns.items():
        lines.append(
            f"| {policy} | {b['cycles']} | {b['ipc']} | {b['issues']}"
            f" | {b['stalls'].get('scoreboard', 0)} | {b['stalls'].get('ibuffer', 0)}"
            f" | {b['masked']} | {b['idle']} | {b['switches']} |"
        )

    lines += [
        "",
        f"## Gap attribution: `{SUBJECT_POLICY}` vs `{BASELINE_POLICY}`",
        "",
        f"Cycle gap: **{gap}** ({subject['cycles']} vs {base['cycles']}).  The",
        "scheduler channel partitions every cycle into exactly one of the",
        "kinds below, so the deltas sum to the gap — 100% accounted.",
        "",
        f"| component | {BASELINE_POLICY} | {SUBJECT_POLICY} | delta | share of gap |",
        "|---|---:|---:|---:|---:|",
    ]
    total_delta = 0
    for label, extract in COMPONENTS:
        delta = extract(subject) - extract(base)
        total_delta += delta
        share = f"{100 * delta / gap:.1f}%" if gap else "n/a"
        lines.append(
            f"| {label} | {extract(base)} | {extract(subject)} | {delta:+d} | {share} |"
        )
    if total_delta != gap:
        raise AssertionError(
            f"gap attribution lost cycles: deltas sum to {total_delta}, gap is {gap}"
        )
    lines.append(f"| **total** | {base['cycles']} | {subject['cycles']} | {gap:+d} | 100.0% |")

    scoreboard_delta = subject["stalls"].get("scoreboard", 0) - base["stalls"].get(
        "scoreboard", 0
    )
    locality = breakdowns["cache-locality"]
    lines += [
        "",
        "## Findings",
        "",
        f"* Greedy-then-oldest loses the scenario almost entirely to"
        f" **scoreboard stalls** ({scoreboard_delta:+d} cycles,"
        f" {100 * scoreboard_delta / gap:.1f}% of the gap): greedy re-selects"
        " the wavefront it just issued, which is exactly the one whose"
        " destination register is still in flight behind the 100-cycle"
        " memory, so the core burns the whole latency re-probing one blocked"
        " wavefront instead of rotating to a ready one.",
        f"* Its low switch count ({subject['switches']} vs"
        f" {base['switches']} under round-robin) is the same pathology from"
        " the other side: the policy is *too* sticky on this workload.",
        "* The `cache-locality` policy was derived from this table: it keeps"
        " greedy's line-affinity upside but skips wavefronts whose last issue"
        " attempt raised a scoreboard hazard (`note_hazard`), cutting the"
        f" stall burn to {locality['stalls'].get('scoreboard', 0)} cycles and"
        f" landing at {locality['cycles']} cycles —"
        f" {subject['cycles'] - locality['cycles']} cycles better than"
        " greedy-then-oldest, though still behind the round-robin family,"
        " which this memory-bound scenario rewards for maximum latency"
        " hiding.",
        "",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=root / "FORENSICS_scheduler.md")
    args = parser.parse_args(argv)

    breakdowns = {}
    for policy in SCHEDULER_POLICIES:
        breakdowns[policy] = run_policy(policy)
        b = breakdowns[policy]
        print(
            f"  {policy:20s} cycles={b['cycles']:7d} issue={b['issues']:6d} "
            f"sb-stall={b['stalls'].get('scoreboard', 0):6d} "
            f"masked={b['masked']:6d} idle={b['idle']:6d} switches={b['switches']:6d}"
        )

    report = render_report(breakdowns)
    args.out.write_text(report, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
