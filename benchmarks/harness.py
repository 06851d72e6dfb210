"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section: it runs the relevant experiment on the SIMX
(cycle-level) driver, prints the rows/series the paper reports side by side
with the published values, and asserts the qualitative shape (who wins, how
the trend moves).  Experiments are cached per configuration so a benchmark
invocation never repeats a simulation.

Test runs only print the tables.  The committed ``benchmark_tables.txt`` is
regenerated (overwritten, one copy) by an explicit command::

    PYTHONPATH=src python -m benchmarks.harness
"""

from __future__ import annotations

import sys
from functools import lru_cache
from collections.abc import Iterable
from pathlib import Path

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.kernels import KERNELS
from repro.kernels.texture import hardware_texture_kernel, software_texture_kernel
from repro.runtime.device import VortexDevice
from repro.runtime.report import ExecutionReport

#: Problem sizes used by the harness.  They are intentionally small — the
#: substrate is a Python cycle-level simulator, not the authors' FPGA — and
#: are recorded here (README.md "Tests and benchmarks" says how to rerun them;
#: the host-speed workloads and their sizes are catalogued in bench/README.md).
KERNEL_SIZES: dict[str, int] = {
    "vecadd": 128,
    "saxpy": 128,
    "sgemm": 8 * 8,
    "sfilter": 8 * 8,
    "nearn": 128,
    "gaussian": 16,
    "bfs": 64,
}

#: Render-target size (pixels) for the texture benchmarks.
TEXTURE_SIZE = 16 * 16


def make_config(
    num_cores: int = 1,
    num_warps: int = 4,
    num_threads: int = 4,
    dcache_ports: int = 1,
    mem_latency: int = 100,
    mem_bandwidth: int = 1,
) -> VortexConfig:
    """Build a processor configuration for one experiment point.

    Bandwidth scales as channels: each adds one response per cycle and 16
    request-queue entries.  At the latencies Fig 21 sweeps, the queue bound
    ``request_queue_size / latency`` is below the per-cycle cap, so the queue
    is what limits throughput (see ``MemoryConfig.bandwidth``).
    """
    memory = MemoryConfig(
        latency=mem_latency, bandwidth=mem_bandwidth, request_queue_size=16 * mem_bandwidth
    )
    return VortexConfig(
        num_cores=num_cores,
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=dcache_ports),
        memory=memory,
    ).with_warps_threads(num_warps, num_threads)


@lru_cache(maxsize=None)
def run_kernel(
    kernel_name: str,
    num_cores: int = 1,
    num_warps: int = 4,
    num_threads: int = 4,
    dcache_ports: int = 1,
    mem_latency: int = 100,
    mem_bandwidth: int = 1,
    size: int | None = None,
) -> ExecutionReport:
    """Run one Rodinia-style kernel on SIMX and cache the report."""
    config = make_config(num_cores, num_warps, num_threads, dcache_ports, mem_latency, mem_bandwidth)
    device = VortexDevice(config, driver="simx")
    kernel = KERNELS[kernel_name]()
    run = kernel.run(device, size=size if size is not None else KERNEL_SIZES[kernel_name])
    if not run.passed:
        raise AssertionError(f"{kernel_name} failed verification during benchmarking")
    return run.report


@lru_cache(maxsize=None)
def run_texture(mode: str, use_hw: bool, num_cores: int = 1) -> ExecutionReport:
    """Run one texture benchmark (Figure 20 point) on SIMX and cache the report."""
    config = make_config(num_cores=num_cores)
    device = VortexDevice(config, driver="simx")
    kernel = hardware_texture_kernel(mode) if use_hw else software_texture_kernel(mode)
    run = kernel.run(device, size=TEXTURE_SIZE)
    if not run.passed:
        raise AssertionError(f"{kernel.name} failed verification during benchmarking")
    return run.report


_BENCHMARKS_DIR = Path(__file__).resolve().parent

#: The committed copy of the regenerated tables (written only by :func:`main`).
TABLES_PATH = _BENCHMARKS_DIR.parent / "benchmark_tables.txt"

#: Every table rendered in this process, in order — what :func:`main` writes out.
RENDERED_TABLES: list[str] = []


def print_table(title: str, headers: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Print one regenerated table/figure (and remember it for :func:`main`)."""
    headers = list(headers)
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[column])), max((len(row[column]) for row in rows), default=0))
        for column in range(len(headers))
    ]
    lines = ["", f"=== {title} ==="]
    lines.append("  ".join(str(header).ljust(width) for header, width in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    text = "\n".join(lines)
    print(text)
    RENDERED_TABLES.append(text)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def main() -> int:
    """Run the figure/table benchmarks once and overwrite ``benchmark_tables.txt``."""
    import pytest

    status = int(pytest.main(["-q", str(_BENCHMARKS_DIR)]))
    if status == 0:
        TABLES_PATH.write_text("\n".join(RENDERED_TABLES) + "\n", encoding="utf-8")
        print(f"wrote {TABLES_PATH}")
    return status


if __name__ == "__main__":
    # Under ``python -m`` this file is ``__main__`` while the benchmarks render
    # into the importable ``benchmarks.harness``; run that module's ``main``
    # so it reads the list they filled.
    from benchmarks.harness import main as _main

    sys.exit(_main())
