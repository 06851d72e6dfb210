"""Quickstart: run a vector-addition kernel on the Vortex cycle-level simulator.

This is the smallest end-to-end flow through the stack: build a device,
stage buffers through the command processor, launch the kernel over the
SIMT runtime, read the results back and print the performance report.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import LaunchOptions, VortexConfig, VortexDevice
from repro.kernels import VecAddKernel


def main() -> None:
    # A single 4-wavefront x 4-thread core — the paper's baseline config.
    # Drivers are named by spec string: "simx" (cycle-level), "funcsim"
    # (functional), "simx:trace=mem" (cycle-level with the trace bus on), ...
    config = VortexConfig()
    device = VortexDevice(config, driver="simx")

    # The kernel object owns the device-side binary (assembled through the
    # builder DSL) and the host-side staging/verification code.  Launch
    # parameters (cycle/instruction budgets, entry override) are one
    # LaunchOptions record, uniform across every driver.
    kernel = VecAddKernel()
    run = kernel.run(device, size=256, options=LaunchOptions(max_cycles=1_000_000))

    result = run.context["out"].read(np.uint32, run.context["size"])
    expected = run.context["a"] + run.context["b"]

    print("vecadd on", device.driver_name)
    print("  correct results:", bool(np.array_equal(result, expected)))
    print("  instructions   :", run.report.instructions)
    print("  cycles         :", run.report.cycles)
    print(f"  IPC            : {run.report.ipc:.3f}")
    print("  dcache hit rate:",
          f"{_hit_rate(run.report.counters.get('dcache0', {})):.1%}")


def _hit_rate(counters: dict) -> float:
    hits = counters.get("read_hits", 0) + counters.get("write_hits", 0)
    misses = counters.get("read_misses", 0) + counters.get("write_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


if __name__ == "__main__":
    main()
