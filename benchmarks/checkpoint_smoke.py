"""Checkpoint/restore smoke benchmark: midpoint-replay identity.

One payload (``BENCH_checkpoint.json``), every row carrying an
``identical_counters`` flag that CI gates with
``benchmarks/check_regression.py --require-identical``:

* **restore_replay** — run-to-midpoint → checkpoint → pickle round-trip →
  restore into a fresh device → finish (``KernelJob.restart_midpoint``),
  diffed counter-by-counter against a straight-through run, for three
  kernels on both drivers;
* **policy_restart** — the same SIMX restart of an 8-warp sgemm under each
  scheduler policy, plus a ``roundtrip_identical`` flag: the restored device
  checkpoints to the envelope it was restored from (the policies' selection
  state is in the payload);
* **store_storm_restart** — saxpy on the ``simx_memwall_stores`` benchmark
  configuration, paused inside a write-refusal storm (stores queued, DRAM
  queue full), restored into a fresh device and finished: the core's
  store-queue lane tallies are derived, not checkpointed, so this row shows
  the restored core rebuilds them bit-identically;
* **repeat_restart** — sgemm on that configuration (``simx_memwall_loads``'s),
  paused while the core holds an armed drain repeat: the memo is not
  checkpointed, so the restored core makes a real pass first and must still
  finish bit-identically.

Run with::

    PYTHONPATH=src python benchmarks/checkpoint_smoke.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.common.config import (
    SCHEDULER_POLICIES,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    VortexConfig,
)
from repro.runtime.jobs import (
    RESTART_MIDPOINT_UNITS,
    KernelJob,
    diff_execution_reports,
    execute_job,
)
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice

CONFIG = VortexConfig(
    num_cores=1,
    core=CoreConfig(num_warps=4, num_threads=4),
    dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
    memory=MemoryConfig(latency=100, bandwidth=1),
)

#: (kernel, size) points for the restore-replay identity rows.
REPLAY_POINTS = (("vecadd", 256), ("sgemm", 8 * 8), ("sfilter", 8 * 8))

#: The ``simx_memwall_stores`` / ``simx_memwall_loads`` configuration: 8 warps
#: of 32 threads behind a 16 KiB write-through data cache and an 800-cycle DRAM.
MEMWALL_CONFIG = replace(
    CONFIG.with_warps_threads(8, 32), memory=MemoryConfig(latency=800, bandwidth=4)
)
#: A cycle inside saxpy 256's write-refusal storm there (about 6.2 k–19 k).
STORM_PAUSE = 10_000
#: A cycle at which sgemm 16x16 there holds an armed drain repeat.
REPEAT_PAUSE = 12_500


def measure_restore_replay(
    kernel: str, size: int, driver: str, config: VortexConfig = CONFIG
) -> dict:
    """Midpoint checkpoint/restore versus straight-through, fully diffed."""
    job = KernelJob(kernel=kernel, config=config, driver=driver, size=size)
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


def measure_policy_restart(policy: str, kernel: str = "sgemm", size: int = 8 * 8) -> dict:
    """The SIMX restart row under one scheduler policy, plus the round trip:
    restore the midpoint envelope into a fresh device and checkpoint again."""
    config = CONFIG.with_warps_threads(8, 4).with_scheduler_policy(policy)
    row = measure_restore_replay(kernel, size, "simx", config)
    row["scenario"] = f"policy_restart_{kernel}_simx_{policy}"
    kernel_obj = KERNELS[kernel]()
    device = VortexDevice(config, driver="simx")
    program = kernel_obj.build_program()
    device.upload_program(program)
    kernel_obj.setup(device, size)
    device.driver.run(program.entry, stop_cycle=RESTART_MIDPOINT_UNITS)
    envelope = pickle.loads(pickle.dumps(device.checkpoint()))
    fresh = VortexDevice(config, driver="simx")
    fresh.restore(envelope)
    row["roundtrip_identical"] = fresh.checkpoint() == envelope
    return row


def measure_pause_restart(
    scenario: str, kernel: str, size: int, pause: int, inside: Callable[[Any], bool], what: str
) -> dict:
    """Checkpoint at ``pause``, restore into a fresh device and finish,
    against a straight-through run; ``inside(processor)`` must hold at the
    pause (``what`` it means)."""

    def staged() -> tuple[VortexDevice, object]:
        kernel_obj = KERNELS[kernel]()
        device = VortexDevice(MEMWALL_CONFIG, driver="simx")
        program = kernel_obj.build_program()
        device.upload_program(program)
        kernel_obj.setup(device, size)
        return device, program

    straight, program = staged()
    reference = straight.driver.run(program.entry)
    paused, program = staged()
    paused.driver.run(program.entry, stop_cycle=pause)
    mismatches = []
    if not inside(paused.driver.processor):
        mismatches.append(f"cycle {pause} is not inside {what}")
    envelope = pickle.loads(pickle.dumps(paused.checkpoint()))
    fresh = VortexDevice(MEMWALL_CONFIG, driver="simx")
    fresh.restore(envelope)
    roundtrip = fresh.checkpoint() == envelope
    mismatches += diff_execution_reports(reference, fresh.driver.run(None, resume=True))
    return {
        "scenario": f"{scenario}_{kernel}_simx",
        "cycles": reference.cycles,
        "instructions": reference.instructions,
        "identical_counters": not mismatches,
        "roundtrip_identical": roundtrip,
        "mismatches": mismatches,
        "errors": [],
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
    rows += [measure_policy_restart(policy) for policy in sorted(SCHEDULER_POLICIES)]
    rows.append(
        measure_pause_restart(
            "store_storm_restart", "saxpy", 256, STORM_PAUSE,
            lambda processor: bool(
                processor.cores[0]._store_queue and not processor.memsys.dram.can_accept
            ),
            "a write-refusal storm",
        )
    )
    rows.append(
        measure_pause_restart(
            "repeat_restart", "sgemm", 16 * 16, REPEAT_PAUSE,
            lambda processor: processor.cores[0]._repeat is not None,
            "an armed drain repeat",
        )
    )

    identical = all(
        row["identical_counters"] and row.get("roundtrip_identical", True) for row in rows
    )
    payload = {
        "benchmark": "checkpoint/restore: midpoint-replay identity",
        "generated_by": "benchmarks/checkpoint_smoke.py",
        "identical_counters": identical,
        "results": rows,
    }
    for row in rows:
        ok = row["identical_counters"] and row.get("roundtrip_identical", True)
        print(f"  {row['scenario']:45s} {'identical' if ok else 'MISMATCH'}")
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
