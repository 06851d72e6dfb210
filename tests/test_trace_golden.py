"""A golden trace in tier-1: the schedule, pinned window by window.

``tests/golden/simx_counters.json`` pins what a run *totals*; a schedule
change shows there as a different sum with no hint of where it began.
``tests/golden/trace_digests.json`` pins the JSONL trace stream of three small
runs as one sha256 per 256-cycle window (a few KB, not the 240 MB trace), so
the failure names the first cycle window that differs and prints the line
the stream enters it with.  A digest cannot say which line inside a window
moved; for that, write the trace at the last good commit and at this one
(``simx:trace=jsonl,trace_file=...``) and run ``python -m repro.trace diff``.

Regenerate (only when a timing-model or trace-format change is intended, and
say so in CHANGES.md)::

    PYTHONPATH=src python tests/test_trace_golden.py [NAME ...]

Named scenarios are rerun and every other entry of the golden file is kept
byte for byte; with no names every scenario is rerun.  Each rerun scenario
prints whether its digest changed.  A new or reshaped scenario's digest is
generated on the last good commit (copy this file there), so the change has
to reproduce it rather than define it.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice
from repro.trace.sinks import JsonlSink

from test_golden_counters import assert_counters_conserved

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_digests.json"
WINDOW_CYCLES = 256

_ONE_PORT = CacheConfig(size=16 * 1024, num_banks=4, num_ports=1)

#: name -> (kernel, size, config)
SCENARIOS = {
    # The tests/test_trace.py shape: banked one-port dcache, visible latency.
    "sgemm_8x8_4w4t": (
        "sgemm",
        8 * 8,
        VortexConfig(
            dcache=_ONE_PORT, memory=MemoryConfig(latency=100, bandwidth=1)
        ).with_warps_threads(4, 4),
    ),
    # The memory wall: store-refusal storms replayed by the fast-forward.
    "saxpy_256_8w32t_latency800": (
        "saxpy",
        256,
        VortexConfig(
            dcache=_ONE_PORT, memory=MemoryConfig(latency=800, bandwidth=4)
        ).with_warps_threads(8, 32),
    ),
    # A store storm behind L2 and L3 on a 2-entry DRAM queue: write-throughs
    # refused level by level, read and write bank conflicts at both shared
    # levels (128-byte lines, two D$ lines each) and per-lane cross-level order.
    "saxpy_64_2c_8w32t_l2l3_queue2": (
        "saxpy",
        64,
        replace(
            VortexConfig(num_cores=2).with_cache_hierarchy(enable_l2=True, enable_l3=True),
            l2cache=CacheConfig(size=16 * 1024, line_size=128, num_banks=2),
            l3cache=CacheConfig(size=16 * 1024, line_size=128, num_banks=1),
            memory=MemoryConfig(latency=60, bandwidth=1, request_queue_size=2),
        ).with_warps_threads(8, 32),
    ),
}


class WindowDigestSink:
    """Hashes the JSONL stream per ``WINDOW_CYCLES`` window instead of keeping it.

    ``keep`` names one window whose lines are kept (for the failure report).
    """

    def __init__(self, keep: int | None = None):
        self._text = io.StringIO()
        self._jsonl = JsonlSink(self._text)
        self.bytes = len(self._text.getvalue())  # the header line
        self.events = 0
        self._windows: dict[int, list] = {}  # window -> [events, sha256 so far]
        self._keep = keep
        self.kept: list[str] = []

    def write_batch(self, records) -> None:
        self._text.seek(0)
        self._text.truncate()
        self._jsonl.write_batch(records)
        lines = self._text.getvalue().splitlines(keepends=True)
        assert len(lines) == len(records)
        for record, line in zip(records, lines):
            window = record[0] // WINDOW_CYCLES
            entry = self._windows.setdefault(window, [0, hashlib.sha256()])
            data = line.encode("utf-8")
            entry[0] += 1
            entry[1].update(data)
            self.bytes += len(data)
            if window == self._keep:
                self.kept.append(line)
        self.events += len(records)

    def close(self) -> None:
        return None

    def digest(self) -> dict:
        return {
            "events": self.events,
            "bytes": self.bytes,
            # window index -> "events:sha256" (one line each in the golden file)
            "windows": {
                str(window): f"{count}:{sha256.hexdigest()}"
                for window, (count, sha256) in sorted(self._windows.items())
            },
        }


def trace_digest(name: str, keep: int | None = None) -> tuple[dict, list[str]]:
    """Run scenario ``name`` traced; returns its digest and the kept window's lines."""
    kernel, size, config = SCENARIOS[name]
    device = VortexDevice(config, driver="simx:trace=mem")
    sink = WindowDigestSink(keep)
    device.driver.trace_bus.sinks[:] = [sink]  # JSONL bytes, hashed instead of written
    run = KERNELS[kernel]().run(device, size=size)
    assert run.passed
    assert_counters_conserved(run.report.counters, config)
    return {"cycles": run.report.cycles, **sink.digest()}, sink.kept


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_the_golden_digests_window_by_window(name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["scenarios"][name]
    actual, _ = trace_digest(name)
    if actual == golden:
        return
    expected, found = golden["windows"], actual["windows"]
    differing = sorted(
        int(w) for w in {*expected, *found} if expected.get(w) != found.get(w)
    )
    if not differing:  # same windows, so a total moved without any event moving
        pytest.fail(f"{name}: totals differ, golden {golden} vs {actual}")
    first = differing[0]
    _, lines = trace_digest(name, keep=first)
    pytest.fail(
        f"{name}: the trace first differs in cycles "
        f"{first * WINDOW_CYCLES}..{(first + 1) * WINDOW_CYCLES - 1} (window {first}; "
        f"{len(differing)} of {len(expected)} windows differ): golden events:sha256 "
        f"{expected.get(str(first))}, now {found.get(str(first))}; totals golden "
        f"{golden['events']} events / {golden['bytes']} bytes / {golden['cycles']} cycles, now "
        f"{actual['events']} / {actual['bytes']} / {actual['cycles']}.\n"
        f"The stream enters that window with:\n  {lines[0] if lines else '(no event)'}"
        f"See this file's docstring to find the line or to regenerate."
    )


def test_golden_file_covers_every_scenario():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert golden["window_cycles"] == WINDOW_CYCLES
    assert sorted(golden["scenarios"]) == sorted(SCENARIOS)


def regenerate(names: list[str]) -> None:
    """Rerun ``names`` (every scenario when empty) into the golden file,
    keeping the other entries as they are; prints whether each changed."""
    unknown = sorted(set(names) - set(SCENARIOS))
    if unknown:
        raise SystemExit(f"unknown scenarios {unknown}; known: {sorted(SCENARIOS)}")
    scenarios = {}
    if GOLDEN_PATH.exists():
        scenarios = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["scenarios"]
    for name in names or sorted(SCENARIOS):
        digest = trace_digest(name)[0]
        print(f"{name}: {'unchanged' if scenarios.get(name) == digest else 'changed'}")
        scenarios[name] = digest
    missing = sorted(set(SCENARIOS) - set(scenarios))
    if missing:
        raise SystemExit(f"no golden digest for {missing}: name them too")
    payload = {
        "generated_by": "PYTHONPATH=src python tests/test_trace_golden.py",
        "window_cycles": WINDOW_CYCLES,
        "scenarios": {name: scenarios[name] for name in sorted(SCENARIOS)},
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
