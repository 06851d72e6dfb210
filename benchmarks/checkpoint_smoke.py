"""Checkpoint/restore smoke benchmark: midpoint-replay identity.

One payload (``BENCH_checkpoint.json``), every row carrying an
``identical_counters`` flag that CI gates with
``benchmarks/check_regression.py --require-identical``:

* **restore_replay** — run-to-midpoint → checkpoint → pickle round-trip →
  restore into a fresh device → finish (``KernelJob.restart_midpoint``),
  diffed counter-by-counter against a straight-through run, for three
  kernels on both drivers.

Run with::

    PYTHONPATH=src python benchmarks/checkpoint_smoke.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.common.config import CacheConfig, CoreConfig, MemoryConfig, VortexConfig
from repro.engine.session import KernelJob, diff_execution_reports, execute_job

CONFIG = VortexConfig(
    num_cores=1,
    core=CoreConfig(num_warps=4, num_threads=4),
    dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
    memory=MemoryConfig(latency=100, bandwidth=1),
)

#: (kernel, size) points for the restore-replay identity rows.
REPLAY_POINTS = (("vecadd", 256), ("sgemm", 8 * 8), ("sfilter", 8 * 8))


def measure_restore_replay(kernel: str, size: int, driver: str) -> dict:
    """Midpoint checkpoint/restore versus straight-through, fully diffed."""
    job = KernelJob(kernel=kernel, config=CONFIG, driver=driver, size=size)
    straight = execute_job(job)
    restarted = execute_job(replace(job, restart_midpoint=True))
    mismatches: list[str] = []
    if straight.report is not None and restarted.report is not None:
        mismatches = diff_execution_reports(straight.report, restarted.report)
    identical = straight.ok and restarted.ok and not mismatches
    return {
        "scenario": f"restore_replay_{kernel}_{driver}",
        "cycles": getattr(straight.report, "cycles", None),
        "instructions": getattr(straight.report, "instructions", None),
        "identical_counters": identical,
        "mismatches": mismatches,
        "errors": [e for e in (straight.error, restarted.error) if e],
    }


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=root / "BENCH_checkpoint.json")
    args = parser.parse_args(argv)

    rows = [
        measure_restore_replay(kernel, size, driver)
        for kernel, size in REPLAY_POINTS
        for driver in ("simx", "funcsim")
    ]

    identical = all(row["identical_counters"] for row in rows)
    payload = {
        "benchmark": "checkpoint/restore: midpoint-replay identity",
        "generated_by": "benchmarks/checkpoint_smoke.py",
        "identical_counters": identical,
        "results": rows,
    }
    for row in rows:
        status = "identical" if row["identical_counters"] else "MISMATCH"
        print(f"  {row['scenario']:32s} {status}")
        for mismatch in row.get("mismatches", []):
            print(f"    - {mismatch}")

    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    if not identical:
        print("checkpoint smoke FAILED: restore path diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
