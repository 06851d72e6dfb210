"""The benchmark's one command.

``python3 -m bench.run --workload NAME --seed N --seconds S --trace 0|1``
measures one workload in this process and prints one JSON object as its last
line (the contract in ``BENCHMARK.json``): with ``--trace 0`` every end-to-end
metric from untraced repetitions, with ``--trace 1`` every per-layer metric
from repetitions that alternate untraced and span-wrapped.

Without ``--trace`` it is the whole suite: every selected workload runs
alone in a fresh child process (one after another, untraced then traced),
every metric is printed by name with its unit, and the result file that
``python3 -m bench.check`` compares is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from bench.spans import SPAN_NAMES, SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "BENCHMARK.json"

END_TO_END_UNITS = {
    "wall_s": "s",
    "thread_instr_per_s": "1/s",
    "sim_ipc": "instr/cycle",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics that are not ``<span>.self_s`` / ``<span>.calls``.
COUNT_METRICS = (
    "core.cycles",
    "core.instructions",
    "core.thread_instructions",
    "core.idle_cycles",
    "core.scoreboard_stalls",
    "core.ifetch_misses",
    "core.ticked_cycle_ratio",
    "cache.dcache.attempts",
    "cache.dcache.accepted",
    "cache.dcache.accept_ratio",
    "cache.dcache.bank_conflicts",
    "cache.dcache.memq_stalls",
    "cache.dcache.read_hit_ratio",
    "cache.l2.accepted",
    "mem.dram.reads",
    "mem.dram.writes",
    "mem.dram.rejected",
    "mem.dram.mean_latency",
    "trace.events",
    "trace.bytes",
    "service.cache.hit_ratio",
    "service.retries",
    "service.shard_imbalance",
    "service.worker.execute_s",
    "service.ipc_overhead_s",
    "service.queue_wait_s",
    "service.cold_jobs_per_s",
    "service.cached_jobs_per_s",
    "bench.import_s",
    "bench.probe_s",
    "bench.span_coverage",
    "bench.trace_overhead_ratio",
    "bench.wall_mad_frac",
)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "span_coverage", "shard_imbalance")):
        return "ratio"
    if name == "mem.dram.mean_latency":
        return "cycles"
    if name == "trace.bytes":
        return "B"
    return "count"


def per_layer_names() -> list[str]:
    names = [f"{span}.{part}" for span in SPAN_NAMES for part in ("self_s", "calls")]
    return names + list(COUNT_METRICS)


def quiet(samples: list[float], rate: bool = False) -> float:
    """The quiet-machine estimate of timed samples: their lower quartile.

    Host noise in a shared sandbox only ever adds time, in bursts that last
    seconds; measured across interleaved runs the lower quartile of a run's
    repetitions spreads about half as wide as their median.  For a ``rate``
    the matching estimate is the upper quartile.
    """
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2 if rate else 0]


#: Seconds one :func:`probe` takes on this sandbox when it is quiet.  Host-time
#: metrics are reported at this machine speed.
PROBE_NOMINAL_S = 0.1
PROBE_LOOPS = 80_000


class _ProbeBank:
    """A toy cache bank: the object, dict and list traffic of a simulator tick."""

    def __init__(self) -> None:
        self.queue: list[tuple[int, int]] = []
        self.counters = {"attempts": 0, "accepted": 0}

    def send(self, address: int, cycle: int) -> bool:
        self.counters["attempts"] += 1
        if len(self.queue) < 4:
            self.queue.append((cycle + 3, address))
            self.counters["accepted"] += 1
            return True
        return False

    def tick(self, cycle: int) -> list[int]:
        done = []
        queue = self.queue
        while queue and queue[0][0] <= cycle:
            done.append(queue.pop(0)[1])
        return done


def probe(loops: int = PROBE_LOOPS) -> float:
    """Time a fixed loop that runs no repository code: the machine-speed probe.

    The sandbox's speed drifts by 20-75 % for minutes at a time (noise from
    outside the VM: process CPU time inflates with wall time).  Probes
    interleaved with the repetitions see the same drift, so dividing by them
    turns "seconds on whatever the machine was doing" into seconds at one
    reference speed.  The loop copies the simulator's instruction mix (method
    calls, dict counters, short lists, one small numpy operation every fourth
    iteration) so that it slows down by the same factor: over 69 ten-second
    windows in a noisy quarter of an hour, dividing by it cut the
    window-to-window spread of four workloads from 11-19 % to 6-9 % and the
    drift between the two halves from -6 % to under 1 %.
    Returns seconds per ``PROBE_LOOPS`` iterations (``--smoke`` runs fewer).
    """
    start = time.perf_counter()
    banks = [_ProbeBank() for _ in range(4)]
    lanes = np.arange(32, dtype=np.uint32)
    registers = np.zeros((8, 32), dtype=np.uint32)
    pending: dict[int, int] = {}
    address = 0
    for cycle in range(loops):
        for bank in banks:
            for completed in bank.tick(cycle):
                pending.pop(completed, None)
        if not cycle & 3:
            row = registers[(cycle >> 2) & 7]
            row += lanes
            address = int(row[3]) & 0xFFFF
        address = (address * 73 + cycle) & 0xFFFF
        if banks[(address >> 6) & 3].send(address, cycle):
            pending[address] = cycle
    return (time.perf_counter() - start) * PROBE_LOOPS / loops


def summary(samples: list[float]) -> dict[str, float]:
    """Median, min, max and MAD of timed samples, with the sample count."""
    median = statistics.median(samples)
    return {
        "median": median,
        "min": min(samples),
        "max": max(samples),
        "mad": statistics.median(abs(sample - median) for sample in samples),
        "n": len(samples),
    }


# -- one workload, in this process ------------------------------------------------------


#: Set-ups run alone (and torn down unused) after every repetition, next to a
#: probe, so ``setup_s`` has three samples per repetition.
EXTRA_SETUPS = 2


def measure(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, import_s: float = 0.0
) -> dict[str, Any]:
    """Repeat one workload for ``seconds`` and reduce it to the result record."""
    from bench.workloads import BY_NAME, repeat, setup_sample

    workload = BY_NAME[name]
    untraced, traced, totals, setups = [], [], [], []
    # Trace files live inside the checkout and go with the directory.
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=Path.cwd()) as scratch:
        # Discarded warm-up at smoke scale: first-call costs (lazy imports,
        # numpy dispatch caches, worker forks) stay out of every sample.
        repeat(workload, seed, True, None, scratch)
        loops = PROBE_LOOPS // 100 if smoke else PROBE_LOOPS
        probes = [probe(loops)]
        begin = time.perf_counter()
        while not untraced or time.perf_counter() - begin < seconds:
            untraced.append(repeat(workload, seed, smoke, None, scratch))
            setups.append(untraced[-1].setup_s)
            if trace:
                recorder = SpanRecorder()
                traced.append(repeat(workload, seed, smoke, recorder, scratch))
                totals.append(recorder.totals())
            elif not smoke:  # only --trace 0 reports setup_s; smoke stays quick
                for _ in range(EXTRA_SETUPS):
                    setups.append(setup_sample(workload, seed, smoke, scratch))
            probes.append(probe(loops))

    first = untraced[0]
    reps = untraced + traced
    # Every repetition — traced ones too, so the wrappers perturb nothing —
    # must reproduce the first one's inputs and simulated report exactly.
    attempted = sum(rep.outcome.checks for rep in reps) + 2 * (len(reps) - 1)
    failed = sum(rep.outcome.failed for rep in reps) + sum(
        (rep.digest != first.digest)
        + (rep.outcome.input_digest != first.outcome.input_digest)
        for rep in reps[1:]
    )
    walls = [rep.wall_s for rep in untraced]
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "digest": first.digest,
        "input_digest": first.outcome.input_digest,
        "attempted": attempted,
        "failed": failed,
        "timing": {
            "wall_s": summary(walls),
            "setup_s": summary(setups),
            "probe_s": summary(probes),
        },
    }
    if trace:
        values = per_layer_values(untraced, traced, totals)
        values["bench.import_s"] = import_s
        values["bench.probe_s"] = quiet(probes)
        wall = record["timing"]["wall_s"]
        values["bench.wall_mad_frac"] = wall["mad"] / wall["median"]
        units = {metric: unit_of(metric) for metric in values}
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rates = [rep.thread_instructions / rep.rate_s for rep in untraced]
        record["samples"] = {"wall_s": walls, "thread_instr_per_s": rates, "setup_s": setups}
        # Raw samples stay in the record; the reported host-time metrics are
        # scaled to the reference machine speed (see ``probe``).
        slowdown = quiet(probes) / PROBE_NOMINAL_S
        values = {
            "wall_s": quiet(walls) / slowdown,
            "thread_instr_per_s": quiet(rates, rate=True) * slowdown,
            "sim_ipc": first.thread_instructions / first.steps,
            "peak_rss_mb": usage / 1024,
            "setup_s": quiet(setups) / slowdown,
        }
        units = END_TO_END_UNITS
    record["metrics"] = {
        metric: {"value": value, "unit": units[metric]} for metric, value in values.items()
    }
    return record


def per_layer_values(untraced: list, traced: list, totals: list) -> dict[str, float]:
    """Every per-layer metric: spans from the traced repetitions, exact counts
    from their reports, host-time extras from the untraced repetitions."""
    values = dict.fromkeys(per_layer_names(), 0.0)
    for span in SPAN_NAMES:
        values[f"{span}.self_s"] = statistics.median(t.get(span, (0.0, 0))[0] for t in totals)
        values[f"{span}.calls"] = totals[0].get(span, (0.0, 0))[1]
    values.update(traced[0].counts)
    if values["core.cycles"]:
        ticks = values["core.processor.tick.calls"]
        values["core.ticked_cycle_ratio"] = ticks / values["core.cycles"]
    if traced[0].outcome.extra:
        for key in traced[0].outcome.extra:
            values[key] = statistics.median(rep.outcome.extra[key] for rep in untraced)
        # Pipe, pickling and worker-side glue: what the parent waited on a
        # worker beyond the worker's own reported execution time.
        values["service.ipc_overhead_s"] = statistics.median(
            spans["service.worker.request"][0] - rep.outcome.extra["service.worker.execute_s"]
            for spans, rep in zip(totals, traced)
        )
    values["bench.span_coverage"] = statistics.median(
        rep.spanned_s / rep.total_s for rep in traced
    )
    values["bench.trace_overhead_ratio"] = statistics.median(
        rep.total_s for rep in traced
    ) / statistics.median(rep.total_s for rep in untraced)
    return values


def print_metrics(record: dict[str, Any]) -> None:
    for metric, cell in record["metrics"].items():
        print(f"{record['workload']:<20} {metric:<40} {cell['value']:>16.6g} {cell['unit']}")


# -- the whole suite, one child process per run -----------------------------------------


def run_suite(args: argparse.Namespace) -> int:
    from bench.workloads import WORKLOADS

    names = args.workload or [workload.name for workload in WORKLOADS]
    out = Path(args.out or Path(tempfile.mkdtemp(prefix="bench_"), "result.json"))
    result: dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=Path.cwd()) as scratch:
        for name in names:
            merged: dict[str, Any] = {}
            for trace in (0, 1):
                part = Path(scratch) / f"{name}.{trace}.json"
                command = [
                    sys.executable, "-m", "bench.run", "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(part),
                ]  # fmt: skip
                if args.smoke:
                    command.append("--smoke")
                child = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
                if child.returncode != 0 or not part.exists():
                    print(f"{name}: --trace {trace} run failed (exit {child.returncode})")
                    status = 1
                    continue
                record = json.loads(part.read_text())
                print_metrics(record)
                status |= int(record["failed"] > 0)
                layer = "per_layer" if trace else "end_to_end"
                merged[layer] = record.pop("metrics")
                merged["attempted"] = merged.get("attempted", 0) + record["attempted"]
                merged["failed"] = merged.get("failed", 0) + record["failed"]
                if not trace:
                    merged.update(
                        {k: record[k] for k in ("digest", "input_digest", "timing", "samples")}
                    )
                elif merged.get("digest") not in (None, record["digest"]):
                    print(f"{name}: traced digest differs from the untraced run's")
                    status = 1
            result["workloads"][name] = merged
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"result file: {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__)
    parser.add_argument("--workload", nargs="+", help="workload name(s); default all seven")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", help="result file (suite) or this run's record (one run)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; not for claims")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else json.loads(MANIFEST.read_text())["run_seconds"]
    started = time.perf_counter()
    from bench.workloads import BY_NAME

    import_s = time.perf_counter() - started
    unknown = [name for name in args.workload or [] if name not in BY_NAME]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(BY_NAME)}")
    if args.trace is None:
        return run_suite(args)
    if len(args.workload or []) != 1:
        parser.error("--trace measures one workload: give exactly one --workload")

    record = measure(
        args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke, import_s
    )
    print_metrics(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return int(record["failed"] > 0)


if __name__ == "__main__":
    sys.exit(main())
