"""Trace-bus smoke: tracing never perturbs a run, reconciles, and round-trips.

Runs two hit-friendly wide-warp scenarios and the stall-heavy policy-sweep
shape (``POLICY_SWEEP_CYCLES`` in ``tests/test_scheduler_policy.py``) four ways:

* ``simx`` — tracing off.  The instrumented hot paths pay only the prebound
  ``trace is None`` guards (an unguarded emission raises on ``None``).
* ``simx:trace=mem`` — full tracing into an in-memory sink.  The reports
  of the off and traced runs must be **bit-identical** (tracing observes
  the simulation, never perturbs it) and the event stream must
  *reconcile*: every per-reason event total equals the corresponding
  aggregate performance counter exactly
  (:func:`repro.trace.attribution.reconcile`).
* ``simx:trace=jsonl`` — the file sink ``bench``'s ``simx_traced`` workload
  exercises: its ``events``, ``bytes`` and ``events_per_second`` sit beside
  the ``mem`` figures of every scenario, and its file must parse back to the
  in-memory stream.
* ``simx:trace=csv`` / ``trace=vcd`` (one scenario) — the file sinks must
  produce parseable artifacts whose contents match the in-memory stream.

One more row relaunches on a warm device: the second launch's off and
``trace=mem`` reports must be identical, the stream of both launches must
reconcile with the (device-lifetime) counters, every event of the second
launch must be stamped inside its window of the device clock, and the
fast-forwarded stream must expand to that of a ``reset`` + ``tick()`` twin.
Its ``trace=jsonl`` leg relaunches a file-traced device: the sink reopens
for append, so one file with one header must parse back to the
``trace=mem`` stream of both launches.

CI gates the identity flags only (``check_regression.py --require-identical``).
Each row still reports ``speedup`` = *traced-seconds / off-seconds*, but as
information: a wall-ratio *floor* on it went red whenever tracing got
cheaper, and host speed is measured by ``bench/`` (``simx_traced``), not by
sub-second ratios here.

Run with::

    PYTHONPATH=src python benchmarks/trace_smoke.py [--reps N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.runtime.jobs import diff_execution_reports
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice
from repro.trace import expand_skips
from repro.trace.attribution import reconcile
from repro.trace.sinks import parse_csv, parse_jsonl, parse_vcd, vcd_changes

#: The scenarios run under tracing: (name, kernel, size, warps, threads, port_limited).
SCENARIOS = (
    ("trace_sfilter_4w32t", "sfilter", 24 * 24, 4, 32, False),
    ("trace_sgemm_4w32t", "sgemm", 20 * 20, 4, 32, False),
    ("trace_sgemm_8w4t", "sgemm", 24 * 24, 8, 4, True),
)

#: The scenario whose traced stream is additionally written through the
#: file sinks and re-parsed.
ARTIFACT_SCENARIO = "trace_sgemm_8w4t"

#: The relaunch row: (name, kernel, size, warps, threads, port_limited).
RELAUNCH_SCENARIO = ("trace_relaunch_sgemm_8w4t", "sgemm", 12 * 12, 8, 4, True)


def _config(warps: int, threads: int, port_limited: bool) -> VortexConfig:
    if port_limited:
        # The policy-sweep / forensics shape: stall-heavy.
        return VortexConfig(
            dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
            memory=MemoryConfig(latency=100, bandwidth=1),
        ).with_warps_threads(warps, threads)
    # Hit-friendly: wide virtual porting keeps retry traffic from drowning the execute stage.
    return VortexConfig(
        dcache=CacheConfig(size=64 * 1024, num_banks=8, num_ports=8),
        memory=MemoryConfig(latency=10, bandwidth=8),
    ).with_warps_threads(warps, threads)


def _run_once(driver: str, kernel: str, size: int, config: VortexConfig):
    device = VortexDevice(config, driver=driver)
    start = time.perf_counter()
    run = KERNELS[kernel]().run(device, size=size)
    wall = time.perf_counter() - start
    if not run.passed:
        raise AssertionError(f"{kernel} failed verification on {driver}")
    return wall, run.report, device.driver


def measure_scenario(
    name: str, kernel: str, size: int, warps: int, threads: int,
    port_limited: bool, reps: int,
) -> dict[str, Any]:
    """Best-of-N off vs traced (mem, jsonl), interleaved so machine noise hits all."""
    config = _config(warps, threads, port_limited)
    off_best = traced_best = jsonl_best = float("inf")
    off_report = traced_report = None
    traced_driver = None
    with tempfile.TemporaryDirectory() as tmp:
        jsonl_path = Path(tmp) / "trace.jsonl"
        for _ in range(reps):
            wall, off_report, _ = _run_once("simx", kernel, size, config)
            off_best = min(off_best, wall)
            wall, traced_report, traced_driver = _run_once(
                "simx:trace=mem", kernel, size, config
            )
            traced_best = min(traced_best, wall)
            wall, jsonl_report, _ = _run_once(
                f"simx:trace=jsonl,trace_file={jsonl_path}", kernel, size, config
            )
            jsonl_best = min(jsonl_best, wall)
        jsonl_bytes = jsonl_path.stat().st_size
        jsonl_events = parse_jsonl(jsonl_path.read_text(encoding="utf-8"))

    mismatches = diff_execution_reports(off_report, traced_report)
    mismatches += diff_execution_reports(off_report, jsonl_report)
    events = list(traced_driver.trace_sink.events)
    if jsonl_events != events:
        mismatches.append("trace=jsonl file does not parse back to the trace=mem stream")
    reconciliation = reconcile(events, traced_driver.processor)
    return {
        "scenario": name,
        "kernel": kernel,
        "size": size,
        "warps": warps,
        "threads": threads,
        "cycles": off_report.cycles,
        "events": len(events),
        "off_seconds": round(off_best, 4),
        "traced_seconds": round(traced_best, 4),
        "off_cycles_per_second": round(off_report.cycles / off_best, 1),
        "traced_cycles_per_second": round(traced_report.cycles / traced_best, 1),
        "speedup": round(traced_best / off_best, 2),
        "jsonl": {
            "events": len(jsonl_events),
            "bytes": jsonl_bytes,
            "seconds": round(jsonl_best, 4),
            "events_per_second": round(len(jsonl_events) / jsonl_best, 1),
        },
        "identical_counters": not mismatches and not reconciliation,
        "mismatches": mismatches + reconciliation,
    }


def _launch_ticked(device: VortexDevice, kernel: str, size: int) -> None:
    """Launch by ``reset`` + ``tick()`` alone: the cycle-by-cycle reference."""
    instance = KERNELS[kernel]()
    program = instance.build_program()
    device.upload_program(program)
    context = instance.setup(device, size)
    processor = device.driver.processor
    processor.reset(program.entry)
    with np.errstate(all="ignore"):  # as TimingProcessor.run does for lane plans
        while not processor.done:
            processor.tick()
    device.driver.trace_bus.flush()
    if not instance.verify(device, context):
        raise AssertionError(f"{kernel} failed verification on the ticked relaunch")


def measure_relaunch(
    name: str, kernel: str, size: int, warps: int, threads: int, port_limited: bool
) -> dict[str, Any]:
    """Second launch on a warm device: off vs traced vs the ticked twin, and
    a file-traced device relaunched into one JSONL file."""
    config = _config(warps, threads, port_limited)
    with tempfile.TemporaryDirectory() as tmp:
        jsonl_path = Path(tmp) / "relaunch.jsonl"
        drivers = (
            "simx", "simx:trace=mem", "simx:trace=mem",
            f"simx:trace=jsonl,trace_file={jsonl_path}",
        )
        off, traced, ticked, jsonl = (VortexDevice(config, driver=driver) for driver in drivers)
        for device in (off, traced, ticked, jsonl):
            if not KERNELS[kernel]().run(device, size=size).passed:
                raise AssertionError(f"{kernel} failed verification on the first launch")
        first = len(traced.driver.trace_sink.events)
        first_ticked = len(ticked.driver.trace_sink.events)
        off_report = KERNELS[kernel]().run(off, size=size).report
        traced_report = KERNELS[kernel]().run(traced, size=size).report
        jsonl_report = KERNELS[kernel]().run(jsonl, size=size).report
        _launch_ticked(ticked, kernel, size)
        jsonl_text = jsonl_path.read_text(encoding="utf-8")

    mismatches = diff_execution_reports(off_report, traced_report)
    mismatches += diff_execution_reports(off_report, jsonl_report)
    events = traced.driver.trace_sink.events
    if jsonl_text.count('"format": "repro-trace"') != 1:
        mismatches.append("relaunched trace=jsonl file does not hold exactly one header")
    elif parse_jsonl(jsonl_text) != events:
        mismatches.append("relaunched trace=jsonl file does not parse back to the trace=mem stream")
    relaunch = events[first:]
    start = traced.driver.processor.launch_start
    if not all(start < event.cycle <= start + traced_report.cycles for event in relaunch):
        mismatches.append("a relaunch event is stamped outside its device-clock window")
    if expand_skips(relaunch) != expand_skips(ticked.driver.trace_sink.events[first_ticked:]):
        mismatches.append("relaunch run() stream does not expand to the reset+tick() twin's")
    mismatches += reconcile(list(events), traced.driver.processor)
    return {
        "scenario": name,
        "kernel": kernel,
        "size": size,
        "warps": warps,
        "threads": threads,
        "launch_start": start,
        "cycles": traced_report.cycles,
        "events": len(relaunch),
        "identical_counters": not mismatches,
        "mismatches": mismatches,
    }


def check_artifacts(kernel: str, size: int, config: VortexConfig) -> dict[str, Any]:
    """The file sinks round-trip the deterministic traced stream."""
    _, _, mem_driver = _run_once("simx:trace=mem", kernel, size, config)
    events = list(mem_driver.trace_sink.events)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "trace.csv"
        vcd_path = Path(tmp) / "trace.vcd"
        _run_once(f"simx:trace=csv,trace_file={csv_path}", kernel, size, config)
        _run_once(f"simx:trace=vcd,trace_file={vcd_path}", kernel, size, config)
        csv_ok = parse_csv(csv_path.read_text()) == events
        vcd_ok = parse_vcd(vcd_path.read_text()) == vcd_changes(events)
    return {
        "scenario": ARTIFACT_SCENARIO,
        "events": len(events),
        "csv_round_trips": bool(csv_ok),
        "vcd_round_trips": bool(vcd_ok),
    }


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", type=Path, default=root / "BENCH_trace.json")
    args = parser.parse_args(argv)

    results = []
    artifacts = None
    for name, kernel, size, warps, threads, port_limited in SCENARIOS:
        row = measure_scenario(name, kernel, size, warps, threads, port_limited, args.reps)
        results.append(row)
        status = "identical" if row["identical_counters"] else "MISMATCH"
        print(
            f"  {name:20s} cycles={row['cycles']:7d} events={row['events']:7d} "
            f"off={row['off_seconds']:.3f}s mem={row['traced_seconds']:.3f}s "
            f"({row['speedup']:.2f}x off) jsonl={row['jsonl']['seconds']:.3f}s "
            f"({row['jsonl']['bytes']} B, {row['jsonl']['events_per_second']:.0f} events/s) {status}"
        )
        for mismatch in row["mismatches"]:
            print(f"    - {mismatch}")
        if name == ARTIFACT_SCENARIO:
            artifacts = check_artifacts(kernel, size, _config(warps, threads, port_limited))
            print(
                f"  {name:20s} csv_round_trips={artifacts['csv_round_trips']} "
                f"vcd_round_trips={artifacts['vcd_round_trips']}"
            )

    row = measure_relaunch(*RELAUNCH_SCENARIO)
    results.append(row)
    status = "identical" if row["identical_counters"] else "MISMATCH"
    print(
        f"  {row['scenario']:20s} cycles={row['cycles']:7d} events={row['events']:7d} "
        f"second launch from device cycle {row['launch_start']} {status}"
    )
    for mismatch in row["mismatches"]:
        print(f"    - {mismatch}")

    payload = {
        "benchmark": "trace bus: identity off/mem/jsonl + sink round-trips + reconciliation",
        "generated_by": "benchmarks/trace_smoke.py",
        "identical_counters": all(row["identical_counters"] for row in results),
        "results": results,
        "artifacts": artifacts,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    if not payload["identical_counters"]:
        print("trace smoke FAILED: tracing perturbed or mis-counted a run", file=sys.stderr)
        return 1
    if not (artifacts and artifacts["csv_round_trips"] and artifacts["vcd_round_trips"]):
        print("trace smoke FAILED: file sinks did not round-trip", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
