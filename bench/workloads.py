"""The seven workloads and one repetition of each.

A repetition is a set-up (``stage``, timed as ``setup_s``) followed by a run
(``execute``, timed as ``wall_s``) and an untimed ``teardown``.  Every
repetition builds a fresh :class:`VortexDevice` (or a fresh service fleet), so
modelled caches start empty and per-PC lane plans are compiled inside the
timed run — users pay both on every run.

``--seed`` drives everything the benchmark generates: the kernels' input
data (``Kernel.rng`` is pinned to 7 inside ``src/``, so bench-side subclasses
override it) and, for ``service_sweep``, the submission order and a salt in
every job's cycle budget that changes all 25 cache keys without changing the
simulated work.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from bench.spans import MissingTarget, SpanRecorder
from repro import KernelJob, LaunchOptions, VortexConfig, VortexDevice
from repro.common.config import CORE_DESIGN_POINTS, CacheConfig, MemoryConfig
from repro.kernels import KERNELS
from repro.runtime.report import ExecutionReport
from repro.runtime.serialize import content_digest
from repro.runtime.simx import DEFAULT_MAX_CYCLES
from repro.service import ServiceClient, ServiceConfig


@dataclass
class Outcome:
    """What one repetition's run phase produced and checked."""

    reports: list[ExecutionReport]
    #: SHA-256 of the generated inputs (host arrays / job cache keys).
    input_digest: str
    checks: int
    failed: int
    #: Host seconds ``thread_instr_per_s`` divides by, when not the whole run
    #: (the cold batch on ``service_sweep``).
    rate_s: float = 0.0
    #: Per-layer figures beyond :func:`simulated_counts`.
    counts: dict[str, float] = field(default_factory=dict)
    #: Host-time figures that only exist on this workload (service phases).
    extra: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what runs and why it exists."""

    name: str
    why: str

    def stage(self, seed: int, smoke: bool, rec: SpanRecorder | None, scratch: str) -> Any:
        """The set-up; returns the state ``execute`` and ``teardown`` take."""
        raise NotImplementedError

    def execute(self, state: Any) -> Outcome:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        raise NotImplementedError


@dataclass
class Rep:
    """One timed repetition."""

    setup_s: float
    wall_s: float
    #: Set-up through teardown (the span-coverage denominator).
    total_s: float
    thread_instructions: int
    rate_s: float
    #: ``sim_ipc`` denominator: modelled cycles (one issued warp instruction
    #: per step on the functional driver, which models no time).
    steps: int
    #: SHA-256 of the canonical report payload(s), host wall-clock removed.
    digest: str
    outcome: Outcome
    #: Exact simulated counts (per-layer metrics that repeat exactly).
    counts: dict[str, float]
    #: Main-thread span self time of a traced repetition (coverage numerator).
    spanned_s: float


def repeat(
    workload: Workload, seed: int, smoke: bool, rec: SpanRecorder | None, scratch: str
) -> Rep:
    """One repetition: timed set-up, timed run, teardown."""
    start = time.perf_counter()
    state = workload.stage(seed, smoke, rec, scratch)
    try:
        staged = time.perf_counter()
        outcome = workload.execute(state)
        done = time.perf_counter()
    finally:
        workload.teardown(state)
    closed = time.perf_counter()
    reports = outcome.reports
    cycles = sum(report.cycles for report in reports)
    return Rep(
        setup_s=staged - start,
        wall_s=done - staged,
        total_s=closed - start,
        thread_instructions=sum(report.thread_instructions for report in reports),
        rate_s=outcome.rate_s or done - staged,
        steps=cycles or sum(report.instructions for report in reports),
        digest=report_digest(reports),
        outcome=outcome,
        counts={**simulated_counts(reports), **outcome.counts},
        spanned_s=rec.thread_self_seconds() if rec is not None else 0.0,
    )


def setup_sample(workload: Workload, seed: int, smoke: bool, scratch: str) -> float:
    """One more ``setup_s`` sample: the set-up alone, torn down unused."""
    start = time.perf_counter()
    state = workload.stage(seed, smoke, None, scratch)
    elapsed = time.perf_counter() - start
    workload.teardown(state)
    return elapsed


# -- seeded inputs and digests --------------------------------------------------------


def seeded_kernel(name: str, seed: int) -> Any:
    """A ``repro.kernels`` kernel whose input data is drawn from ``seed``."""
    base = KERNELS[name]
    seeded = type(
        f"Seeded{base.__name__}",
        (base,),
        {"rng": staticmethod(lambda _pinned=None: np.random.default_rng(seed))},
    )
    return seeded()


def _arrays_digest(context: dict[str, Any]) -> str:
    digest = hashlib.sha256()
    for key in sorted(context):
        value = context[key]
        if isinstance(value, np.ndarray):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def report_digest(reports: list[ExecutionReport]) -> str:
    """SHA-256 over the reports' canonical payloads with host time removed."""
    payloads = []
    for report in reports:
        payload = report.to_payload()
        del payload["wall_seconds"]
        payloads.append(payload)
    return content_digest(payloads)


def simulated_counts(reports: list[ExecutionReport]) -> dict[str, float]:
    """The per-layer counts read from ``ExecutionReport.counters``, summed."""
    groups: dict[str, Counter[str]] = {
        prefix: Counter() for prefix in ("core", "dcache", "l2_", "dram")
    }
    for report in reports:
        for component, counters in report.counters.items():
            for prefix, total in groups.items():
                if component.startswith(prefix):
                    total.update(counters)
    core, dcache, l2, dram = (groups[p] for p in ("core", "dcache", "l2_", "dram"))
    reads = dcache["read_hits"] + dcache["read_misses"]
    return {
        "core.cycles": sum(report.cycles for report in reports),
        "core.instructions": sum(report.instructions for report in reports),
        "core.thread_instructions": sum(r.thread_instructions for r in reports),
        "core.idle_cycles": core["idle_cycles"],
        "core.scoreboard_stalls": core["scoreboard_stalls"],
        "core.ifetch_misses": core["ifetch_misses"],
        "cache.dcache.attempts": dcache["attempts"],
        "cache.dcache.accepted": dcache["accepted"],
        "cache.dcache.accept_ratio": _ratio(dcache["accepted"], dcache["attempts"]),
        "cache.dcache.bank_conflicts": dcache["bank_conflicts"],
        "cache.dcache.memq_stalls": dcache["memq_stalls"],
        "cache.dcache.read_hit_ratio": _ratio(dcache["read_hits"], reads),
        "cache.l2.accepted": l2["accepted"],
        "mem.dram.reads": dram["reads"],
        "mem.dram.writes": dram["writes"],
        "mem.dram.rejected": dram["rejected"],
        "mem.dram.mean_latency": _ratio(dram["total_latency"], dram["responses"]),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- outside-in instrumentation ---------------------------------------------------------


def _instrument_device(rec: SpanRecorder, device: VortexDevice) -> None:
    """Rebind the public layer-boundary methods of a live device's object graph."""
    wrap = rec.instrument
    wrap(device, "upload_program", "runtime.device.upload_program")
    wrap(device, "launch", "runtime.device.launch")
    wrap(device.memory, "gather_words", "mem.memory.gather_words")
    wrap(device.memory, "scatter_words", "mem.memory.scatter_words")
    processor = device.driver.processor
    if device.driver.name == "funcsim":
        # The functional run loop has no public per-instruction boundary, so
        # the split below it is deliberately coarse.
        wrap(processor, "run", "engine.processor.run")
        return
    wrap(processor, "run", "core.processor.run")
    wrap(processor, "tick", "core.processor.tick")
    for core in processor.cores:
        wrap(core, "tick", "core.timing.tick")
        wrap(core, "next_event_cycle", "core.timing.next_event_cycle")
        wrap(core, "skip_idle", "core.timing.skip_idle")
        wrap(core.scheduler, "select", "core.scheduler.select")
        wrap(core.scoreboard, "any_busy", "core.scoreboard.any_busy")
        wrap(core.func, "step_warp_timing", "engine.step_warp_timing")
        wrap(core.smem, "tick", "cache.smem.tick")
        wrap(core.smem, "send_batch", "cache.smem.send_batch")
    memsys = processor.memsys
    wrap(memsys, "tick", "cache.hierarchy.tick")
    wrap(memsys, "next_event_cycle", "cache.hierarchy.next_event_cycle")
    wrap(memsys, "skip_idle", "cache.hierarchy.skip_idle")
    for cache in memsys.icaches:
        wrap(cache, "tick", "cache.icache.tick")
        wrap(cache, "send", "cache.icache.send")
    for cache in memsys.dcaches:
        wrap(cache, "tick", "cache.dcache.tick")
        wrap(cache, "send", "cache.dcache.send")
        wrap(cache, "send_batch", "cache.dcache.send_batch")
        wrap(cache, "fill", "cache.dcache.fill")
    for cache in memsys.l2:
        if cache is not None:
            wrap(cache, "tick", "cache.l2.tick")
            wrap(cache, "send", "cache.l2.send")
            wrap(cache, "fill", "cache.l2.fill")
    wrap(memsys.dram, "tick", "mem.dram.tick")
    wrap(memsys.dram, "send", "mem.dram.send")
    bus = device.driver.trace_bus
    if bus is not None:
        wrap(bus, "emit", "trace.bus.emit")
        for sink in bus.sinks:
            wrap(sink, "close", "trace.sink.close")


def _private(obj: Any, attr: str) -> Any:
    """A private attribute the service spans need; loud when it moves."""
    try:
        return getattr(obj, attr)
    except AttributeError:
        raise MissingTarget(f"{type(obj).__name__}.{attr} no longer exists") from None


def _instrument_service(rec: SpanRecorder, client: ServiceClient) -> None:
    """Rebind the parent-process service path: client, cache, key, workers."""
    wrap = rec.instrument
    wrap(client, "run_jobs", "service.client.run_jobs")
    wrap(client, "close", "service.fleet.close")
    service = _private(client, "_service")
    wrap(service, "_job_key", "service.cache_key")
    wrap(service.cache, "lookup", "service.cache.lookup")
    wrap(service.cache, "store", "service.cache.store")
    for shard in _private(service, "_shards"):
        wrap(shard.worker, "request", "service.worker.request")


# -- kernel workloads ---------------------------------------------------------------------


@dataclass(frozen=True)
class KernelWorkload(Workload):
    """Build, stage, launch and verify one kernel on a fresh device."""

    kernel: str = "sgemm"
    #: Problem size (tasks) at full scale / at ``--smoke`` scale.
    size: int = 0
    smoke_size: int = 0
    config: VortexConfig = field(default_factory=VortexConfig)
    driver: str = "simx"
    #: ``repro.trace`` on (JSONL, every channel) — ``simx_traced`` only.
    program_trace: bool = False

    def stage(self, seed: int, smoke: bool, rec: SpanRecorder | None, scratch: str) -> Any:
        driver = self.driver
        trace_file = os.path.join(scratch, f"{self.name}.jsonl")
        if self.program_trace:
            driver = f"{driver}:trace=jsonl,trace_file={trace_file}"
        make_device: Callable[..., VortexDevice] = VortexDevice
        kernel = seeded_kernel(self.kernel, seed)
        if rec is not None:
            rec.instrument(kernel, "build_program", "isa.build_program")
            rec.instrument(kernel, "setup", "kernels.setup")
            rec.instrument(kernel, "verify", "kernels.verify")
            make_device = rec.wrap("runtime.device.init", VortexDevice)
        program = kernel.build_program()
        device = make_device(self.config, driver=driver)
        if rec is not None:
            _instrument_device(rec, device)
        device.upload_program(program)
        context = kernel.setup(device, self.smoke_size if smoke else self.size)
        return kernel, device, context, trace_file

    def execute(self, state: Any) -> Outcome:
        kernel, device, context, trace_file = state
        report = device.launch()
        passed = kernel.verify(device, context)
        counts = {}
        if self.program_trace:
            counts["trace.events"] = device.driver.trace_bus.events_emitted
            counts["trace.bytes"] = os.path.getsize(trace_file)
        return Outcome(
            reports=[report],
            input_digest=_arrays_digest(context),
            checks=1,
            failed=0 if passed else 1,
            counts=counts,
        )

    def teardown(self, state: Any) -> None:
        trace_file = state[-1]
        if os.path.exists(trace_file):
            os.remove(trace_file)


# -- the service sweep --------------------------------------------------------------------

#: (kernel, full size, smoke size) of the sweep; short jobs on purpose, so the
#: service's own path (hashing, queueing, pickling/IPC, warm pool) and
#: ``repro.runtime`` staging are a visible share of each job.
SWEEP_KERNELS = (
    ("sgemm", 64, 16),
    ("vecadd", 128, 32),
    ("sfilter", 64, 16),
    ("saxpy", 128, 32),
    ("nearn", 128, 32),
)
SWEEP_SHARDS = 2
#: Replays of the identical batch served from the result cache.
SWEEP_REPLAYS = 250
SMOKE_REPLAYS = 3


@functools.cache
def sweep_jobs(seed: int, smoke: bool = False) -> tuple[tuple[KernelJob, str], ...]:
    """The 25 jobs of one sweep with their cache keys, in this seed's
    submission order (computed once per run, so no repetition times it).

    The seed salts every job's cycle budget (far above what any job uses), so
    all cache keys differ between seeds while the simulated work does not.
    The service routes a job by its key; salts are drawn until the key lands
    on the job's designated shard, which keeps the 13/12 split — and with it
    the cold batch's critical path — the same for every seed.
    """
    rng = random.Random(seed)
    jobs = []
    for point, (warps, threads) in enumerate(CORE_DESIGN_POINTS.values()):
        config = VortexConfig().with_warps_threads(warps, threads)
        for index, (kernel, size, smoke_size) in enumerate(SWEEP_KERNELS):
            shard = (point * len(SWEEP_KERNELS) + index) % SWEEP_SHARDS
            while True:
                budget = DEFAULT_MAX_CYCLES + rng.randrange(1 << 20)
                job = KernelJob(
                    kernel=kernel,
                    config=config,
                    size=smoke_size if smoke else size,
                    options=LaunchOptions(max_cycles=budget),
                )
                key = job.cache_key()
                if _shard_of(key) == shard:
                    break
            jobs.append((job, key))
    rng.shuffle(jobs)
    return tuple(jobs)


def _shard_of(key: str) -> int:
    """The shard the service routes a job with ``key`` to (its documented rule)."""
    return int(key[:8], 16) % SWEEP_SHARDS


@dataclass(frozen=True)
class ServiceWorkload(Workload):
    """A fresh 2-shard fleet: one cold batch, then cached replays of it."""

    def stage(self, seed: int, smoke: bool, rec: SpanRecorder | None, scratch: str) -> Any:
        jobs, keys = (list(column) for column in zip(*sweep_jobs(seed, smoke)))
        make_client: Callable[..., ServiceClient] = ServiceClient
        if rec is not None:
            make_client = rec.wrap("service.fleet.start", ServiceClient)
        client = make_client(ServiceConfig(num_shards=SWEEP_SHARDS, worker_mode="process"))
        try:
            if rec is not None:
                _instrument_service(rec, client)
            # One throw-away job proves the fleet answers before the clock starts.
            warm = client.run_job(KernelJob(kernel="vecadd", size=64))
        except BaseException:
            client.close()
            raise
        return client, jobs, keys, warm, SMOKE_REPLAYS if smoke else SWEEP_REPLAYS

    def execute(self, state: Any) -> Outcome:
        client, jobs, keys, warm, replays = state
        begin = time.perf_counter()
        submitted = time.time()
        cold = client.run_jobs(jobs)
        cold_done = time.perf_counter()
        stale = 0
        expected = [result.report for result in cold]
        for _ in range(replays):
            for result, report in zip(client.run_jobs(jobs), expected):
                stale += not (result.cached and result.passed and result.report == report)
        done = time.perf_counter()
        stats = client.stats()
        shard_busy = [0.0] * SWEEP_SHARDS
        for key, result in zip(keys, cold):
            shard_busy[_shard_of(key)] += result.wall_seconds
        return Outcome(
            reports=[result.report for result in cold if result.report is not None],
            input_digest=content_digest(keys),
            checks=1 + len(jobs) * (1 + replays),
            failed=stale + sum(not result.ok or result.cached for result in [warm, *cold]),
            rate_s=cold_done - begin,
            counts={
                "service.cache.hit_ratio": stats["cache"]["hit_rate"],
                "service.retries": stats["retries"],
            },
            extra={
                "service.cold_jobs_per_s": len(jobs) / (cold_done - begin),
                "service.cached_jobs_per_s": len(jobs) * replays / (done - cold_done),
                "service.worker.execute_s": sum(r.wall_seconds for r in [warm, *cold]),
                "service.queue_wait_s": sum(r.started_at - submitted for r in cold) / len(cold),
                "service.shard_imbalance": max(shard_busy) * SWEEP_SHARDS / sum(shard_busy),
            },
        )

    def teardown(self, state: Any) -> None:
        state[0].close()


# -- the catalogue ------------------------------------------------------------------------

def _config(
    cores: int = 1,
    warps: int = 4,
    threads: int = 4,
    dcache_kib: int = 16,
    banks: int = 4,
    ports: int = 1,
    latency: int = 100,
    bandwidth: int = 1,
    l2: bool = False,
) -> VortexConfig:
    return replace(
        VortexConfig(num_cores=cores).with_warps_threads(warps, threads),
        dcache=CacheConfig(size=dcache_kib * 1024, num_banks=banks, num_ports=ports),
        memory=MemoryConfig(latency=latency, bandwidth=bandwidth),
        enable_l2=l2,
    )


WORKLOADS = (
    KernelWorkload(
        name="simx_compute",
        why="hit-friendly wide warps: lane-plan execute and TimingCore.tick do the work, "
        "DRAM almost none; few idle cycles, so fast-forward must show no effect",
        kernel="sgemm",
        size=52 * 52,
        smoke_size=8 * 8,
        config=_config(warps=4, threads=32, dcache_kib=64, banks=8, ports=8,
                       latency=10, bandwidth=8),
    ),
    KernelWorkload(
        name="simx_memwall_loads",
        why="load-dominated retry wall: send_batch, MSHRs, DRAM and fast-forward do the "
        "work, execute is under 5 %",
        kernel="sgemm",
        size=29 * 29,
        smoke_size=8 * 8,
        config=_config(warps=8, threads=32, latency=800, bandwidth=4),
    ),
    KernelWorkload(
        name="simx_memwall_stores",
        why="the same cache layer used the other way: write-through store storms against "
        "a full DRAM queue, so a read-path gain that costs the write path shows",
        kernel="saxpy",
        size=1536,
        smoke_size=128,
        config=_config(warps=8, threads=32, latency=800, bandwidth=4),
    ),
    KernelWorkload(
        name="simx_multicore",
        why="8 paper-baseline cores with L2: the per-core Python loop and the "
        "8x(I$+D$)+L2 hierarchy tick dominate",
        kernel="sgemm",
        size=29 * 29,
        smoke_size=8 * 8,
        config=_config(cores=8, l2=True),
    ),
    KernelWorkload(
        name="simx_traced",
        why="the only workload with repro.trace on (JSONL, all channels): a trace-path "
        "change shows here and must show nowhere else",
        kernel="sgemm",
        size=22 * 22,
        smoke_size=6 * 6,
        config=_config(),
        program_trace=True,
    ),
    KernelWorkload(
        name="funcsim_large",
        why="repro.engine + repro.mem with no timing layers at all: separates an engine "
        "gain from a timing-model gain",
        kernel="sgemm",
        size=74 * 74,
        smoke_size=10 * 10,
        config=_config(),
        driver="funcsim",
    ),
    ServiceWorkload(
        name="service_sweep",
        why="25 short jobs through a 2-shard SimulationService, cold then replayed from "
        "the result cache: hashing, queueing, pickling/IPC and the warm pool are visible",
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
