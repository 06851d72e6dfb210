"""Simulation-service smoke: cold vs cached replay, plus crash recovery.

Three phases:

1. **Cold** — a mixed (kernel, config) batch served by a fresh
   :class:`~repro.service.SimulationService` fleet (every job executes).
2. **Warm** — the *identical* batch resubmitted to the same service: every
   job must be served from the content-addressed result cache, at least
   ``--min-speedup`` times faster, with **bit-identical**
   ``ExecutionReport`` payloads (the ``identical`` / ``identical_counters``
   flags in the emitted JSON, gated by ``check_regression.py
   --require-identical``).
3. **Crash recovery** — a fresh fleet serves a longer batch while every
   worker is SIGKILLed mid-flight; the batch must still come back fully
   passed via respawn + retry, with the crash/retry counts recorded.

Writes the measurements to ``BENCH_service.json`` (committed baseline:
jobs/sec cold vs warm).  Run with::

    PYTHONPATH=src python benchmarks/service_smoke.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.runtime.jobs import KernelJob
from repro.service import ServiceClient, ServiceConfig


def smoke_jobs() -> list[KernelJob]:
    """A small mixed batch: kernels x configs the sweep clients generate."""
    base = VortexConfig(
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=100, bandwidth=1),
    )
    return [
        KernelJob(kernel="vecadd", config=base, size=128, label="vecadd_base"),
        KernelJob(kernel="saxpy", config=base, size=128, label="saxpy_base"),
        KernelJob(kernel="sgemm", config=base, size=8 * 8, label="sgemm_base"),
        KernelJob(kernel="sfilter", config=base, size=8 * 8, label="sfilter_base"),
        KernelJob(
            kernel="vecadd",
            config=base.with_scheduler_policy("greedy-then-oldest"),
            size=128,
            label="vecadd_gto",
        ),
        KernelJob(
            kernel="sgemm",
            config=base.with_cache_hierarchy(enable_l2=True),
            size=8 * 8,
            label="sgemm_l2",
        ),
    ]


def crash_jobs() -> list[KernelJob]:
    """A longer batch (~seconds) so a mid-batch kill lands on pending work."""
    return [
        KernelJob(kernel="sgemm", size=size, label=f"sgemm_{size}")
        for size in range(64, 104, 4)
    ]


def run_cold_warm(client: ServiceClient, jobs: list[KernelJob]) -> dict:
    start = time.perf_counter()
    cold = client.run_jobs(jobs)
    cold_wall = time.perf_counter() - start
    start = time.perf_counter()
    warm = client.run_jobs(jobs)
    warm_wall = time.perf_counter() - start

    speedup = cold_wall / warm_wall if warm_wall > 0 else float("inf")
    rows = []
    all_identical = True
    for job, cold_result, warm_result in zip(jobs, cold, warm):
        cold_payload = cold_result.report.to_payload() if cold_result.report else None
        warm_payload = warm_result.report.to_payload() if warm_result.report else None
        identical = cold_payload is not None and cold_payload == warm_payload
        all_identical = all_identical and identical and warm_result.cached
        rows.append(
            {
                "scenario": job.label,
                "cycles": cold_payload["cycles"] if cold_payload else None,
                "cold_wall_seconds": cold_result.wall_seconds,
                "served_from_cache": warm_result.cached,
                "identical_counters": identical,
                "speedup": speedup,
                "errors": [
                    error
                    for error in (cold_result.error, warm_result.error)
                    if error is not None
                ],
            }
        )
    return {
        "cold": {"wall_seconds": cold_wall, "jobs_per_second": len(jobs) / cold_wall},
        "warm": {"wall_seconds": warm_wall, "jobs_per_second": len(jobs) / warm_wall},
        "speedup": speedup,
        "identical": all_identical,
        "results": rows,
        "cold_ok": all(r.ok for r in cold),
        "warm_ok": all(r.ok for r in warm),
    }


def run_crash_leg(config: ServiceConfig, kill_after: float) -> dict:
    """Serve a batch while killing every worker mid-flight; report recovery."""
    jobs = crash_jobs()
    with ServiceClient(config) as client:
        pids = [pid for pid in client.worker_pids() if pid is not None]
        if not pids:
            return {"skipped": "no process workers on this platform"}

        def kill_fleet() -> None:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        timer = threading.Timer(kill_after, kill_fleet)
        timer.start()
        try:
            results = client.run_jobs(jobs)
        finally:
            timer.cancel()
        stats = client.stats()
    return {
        "jobs": len(jobs),
        "workers_killed": len(pids),
        "batch_ok": all(r.ok for r in results),
        "max_attempts_observed": max(r.attempts for r in results),
        "worker_crashes": stats["worker_crashes"],
        "respawns": stats["respawns"],
        "retries": stats["retries"],
    }


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=root / "BENCH_service.json")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--mode", default="auto", choices=("auto", "process", "inline"), help="worker mode"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required cached-replay speedup (default 5x)",
    )
    parser.add_argument(
        "--kill-after",
        type=float,
        default=0.3,
        help="seconds into the crash-leg batch at which the fleet is killed",
    )
    parser.add_argument(
        "--skip-crash-leg", action="store_true", help="measure only cold/warm serving"
    )
    args = parser.parse_args(argv)

    config = ServiceConfig(num_shards=args.shards, worker_mode=args.mode)
    with ServiceClient(config) as client:
        measured = run_cold_warm(client, smoke_jobs())
        stats = client.stats()

    print(
        f"[service] cold: {measured['cold']['wall_seconds']:.3f}s "
        f"({measured['cold']['jobs_per_second']:.1f} jobs/s)  "
        f"warm: {measured['warm']['wall_seconds']:.3f}s "
        f"({measured['warm']['jobs_per_second']:.1f} jobs/s)  "
        f"speedup {measured['speedup']:.1f}x  "
        f"identical={measured['identical']}"
    )

    crash: dict = {"skipped": "--skip-crash-leg"}
    if not args.skip_crash_leg:
        crash = run_crash_leg(
            ServiceConfig(num_shards=2, worker_mode=args.mode, retry_backoff=0.05),
            kill_after=args.kill_after,
        )
        if "skipped" in crash:
            print(f"[service] crash leg skipped: {crash['skipped']}")
        else:
            print(
                f"[service] crash leg: {crash['workers_killed']} workers killed, "
                f"{crash['worker_crashes']} crash(es) observed, "
                f"{crash['respawns']} respawn(s), batch_ok={crash['batch_ok']}, "
                f"max attempts {crash['max_attempts_observed']}"
            )

    payload = {
        "benchmark": "simulation service: cold vs cached replay + crash recovery",
        "generated_by": "benchmarks/service_smoke.py",
        "num_shards": args.shards,
        "identical": measured["identical"],
        "identical_counters": measured["identical"],
        "cold": measured["cold"],
        "warm": measured["warm"],
        "speedup": measured["speedup"],
        "results": measured["results"],
        "cache": stats["cache"],
        "crash_recovery": crash,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")

    failures = []
    if not measured["cold_ok"]:
        failures.append("cold batch had failing jobs")
    if not measured["warm_ok"]:
        failures.append("warm batch had failing jobs")
    if not measured["identical"]:
        failures.append("cached replay was not bit-identical to the cold run")
    if measured["speedup"] < args.min_speedup:
        failures.append(
            f"cached replay speedup {measured['speedup']:.1f}x is below "
            f"the required {args.min_speedup:.1f}x"
        )
    if "skipped" not in crash:
        if not crash["batch_ok"]:
            failures.append("crash-leg batch did not fully pass after retries")
        if crash["worker_crashes"] < 1:
            failures.append("crash leg observed no worker crash (kill landed too late?)")
    for failure in failures:
        print(f"service smoke FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
