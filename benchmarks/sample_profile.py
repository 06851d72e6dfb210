"""A sampling profiler beside ``bench/``'s span profile.

``bench/spans.py`` measures layers from outside with ~0.5 µs wrappers, which
over-weights spans called millions of times, and ``cProfile`` inflates every
Python call about 3×.  This samples instead: ``ITIMER_PROF`` fires every
millisecond of process CPU time, the handler walks the interrupted stack
(``frame.f_back``) and counts the innermost function (*self*), every distinct
function on the stack (*inclusive*) and the innermost source line.  The
workload runs unmodified — no wrapper, no tracing hook — after one discarded
repetition at smoke scale (lazy imports, numpy dispatch caches), exactly as
``bench.run`` warms up.

Run with::

    python -m benchmarks.sample_profile --workload simx_multicore [--lines 40]

It reads ``bench.workloads`` and changes nothing there; shares are of samples
taken while a repetition (set-up, run, teardown) was executing.
"""

from __future__ import annotations

import argparse
import signal
import sys
import tempfile
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from types import CodeType, FrameType

ROOT = Path(__file__).resolve().parent.parent
INTERVAL_S = 0.001


class Sampler:
    """Counts of the frames ``ITIMER_PROF`` interrupted.

    The handler only counts code objects and line numbers (it runs inside
    the profiled process, so it must stay cheap and allocation-light);
    names are resolved when the tables are read.
    """

    def __init__(self) -> None:
        self.samples = 0
        self._self: Counter[CodeType] = Counter()
        self._inclusive: Counter[CodeType] = Counter()
        self._lines: Counter[tuple[CodeType, int]] = Counter()

    def _on_timer(self, _signum: int, frame: FrameType | None) -> None:
        if frame is None:
            return
        self.samples += 1
        self._self[frame.f_code] += 1
        self._lines[(frame.f_code, frame.f_lineno)] += 1
        seen = set()
        while frame is not None:
            seen.add(frame.f_code)
            frame = frame.f_back
        self._inclusive.update(seen)

    def run(self, work: Callable[[], None]) -> None:
        """Call ``work()`` with the sampler armed."""
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            work()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def functions(self) -> list[tuple[str, float, float]]:
        """``(function, self share, inclusive share)``, largest self share first."""
        total = self.samples or 1
        return [
            (_name(code), count / total, self._inclusive[code] / total)
            for code, count in self._self.most_common()
        ]

    def lines(self) -> list[tuple[str, float]]:
        """``(file:line, self share)``, largest first."""
        total = self.samples or 1
        return [
            (f"{_short(code.co_filename)}:{lineno}", count / total)
            for (code, lineno), count in self._lines.most_common()
        ]


def _short(filename: str) -> str:
    root = str(ROOT) + "/"
    return filename[len(root):] if filename.startswith(root) else filename


def _name(code: CodeType) -> str:
    return f"{_short(code.co_filename)}:{code.co_qualname}"


def profile(
    workload_name: str, seed: int = 0, smoke: bool = False, repetitions: int = 1
) -> Sampler:
    """Sample ``repetitions`` repetitions of one ``bench`` workload."""
    sys.path[:0] = [path for path in (str(ROOT), str(ROOT / "src")) if path not in sys.path]
    from bench.workloads import BY_NAME, repeat

    workload = BY_NAME[workload_name]
    sampler = Sampler()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=Path.cwd()) as scratch:
        repeat(workload, seed, True, None, scratch)  # discarded warm-up

        def work() -> None:
            for _ in range(repetitions):
                repeat(workload, seed, smoke, None, scratch)

        sampler.run(work)
    return sampler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.sample_profile")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lines", type=int, default=40, help="rows per table")
    parser.add_argument("--repetitions", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="tiny size; proves plumbing only")
    args = parser.parse_args(argv)
    sampler = profile(args.workload, args.seed, args.smoke, args.repetitions)
    print(f"{args.workload}: {sampler.samples} samples at {INTERVAL_S * 1e3:g} ms of CPU time")
    print(f"\n{'self':>7} {'incl':>7}  function")
    for name, self_share, inclusive_share in sampler.functions()[: args.lines]:
        print(f"{self_share:7.1%} {inclusive_share:7.1%}  {name}")
    print(f"\n{'self':>7}  line")
    for where, share in sampler.lines()[: args.lines]:
        print(f"{share:7.1%}  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
