"""Batched multi-kernel simulation sessions.

Design-space exploration runs *many* (kernel, config) combinations — the
paper's Figures 14 and 18-21 each sweep a grid of design points.  A
:class:`Session` turns that sweep into a batch: jobs are described
declaratively as :class:`KernelJob` records, queued on a
:class:`JobQueue`, and executed concurrently on a process pool (one
simulator per worker, true parallelism), a thread pool, or — for
repeat-heavy traffic — the sharded :mod:`repro.service` job server with
its content-addressed result cache (``executor="service"``).

Results come back as :class:`JobResult` records aggregating the
:class:`~repro.runtime.report.ExecutionReport`, the verification outcome
and per-job wall-clock, plus batch-level statistics (total wall time,
peak concurrency measured from the jobs' actual execution intervals).

Because the simulators are deterministic, a job's result is fully
determined by its content: :meth:`KernelJob.cache_key` is the canonical
identity — a stable hash over the program bytes, the full config payload,
the driver spec and the launch options — that the service layer caches and
dedups on.  :func:`diff_execution_reports` compares two results down to
every performance counter (the identity tests' and smoke scripts'
comparator).
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.common.config import VortexConfig
from repro.runtime.launch import LaunchOptions
from repro.runtime.registry import DriverSpec, parse_driver_spec
from repro.runtime.report import ExecutionReport
from repro.runtime.serialize import (
    config_payload,
    content_digest,
    options_payload,
    spec_payload,
)

if TYPE_CHECKING:
    from repro.kernels.base import Kernel
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig

@functools.cache
def _kernel(name: str) -> Kernel:
    """The process's one instance of kernel ``name``, its program assembled.

    Kernel instances hold no per-run state (constructor parameters plus the
    memoized program), so :meth:`KernelJob.cache_key` and every
    :func:`execute_job` in the process — a long-lived service worker
    included — share one.  An unknown name raises ``KeyError``, uncached.
    """
    from repro.kernels import KERNELS

    kernel = KERNELS[name]()
    kernel.build_program()
    return kernel


@dataclass(frozen=True)
class KernelJob:
    """One (kernel, config) point of a sweep.

    ``driver`` is a driver spec — a canonical spec string
    (``"simx"``, ``"simx:trace=mem"``) or a
    :class:`~repro.runtime.registry.DriverSpec`.

    ``options`` (a :class:`~repro.runtime.launch.LaunchOptions`) rides
    through the device launch to the driver, bounding the job uniformly on
    any backend.
    """

    kernel: str
    config: VortexConfig = field(default_factory=VortexConfig)
    driver: str | DriverSpec = "simx"
    size: int | None = None
    label: str = ""
    verify: bool = True
    options: LaunchOptions | None = None
    #: Execute via the checkpoint/restore midpoint path: run to a fixed
    #: midpoint, checkpoint, restore into a *fresh* device and finish there.
    #: The result must be bit-identical to a straight-through run.
    restart_midpoint: bool = False

    @property
    def spec(self) -> DriverSpec:
        """The parsed :class:`DriverSpec` selecting this job's driver."""
        return parse_driver_spec(self.driver)

    @property
    def driver_name(self) -> str:
        """The canonical spec string of :attr:`spec`."""
        return self.spec.driver_name

    def describe(self) -> str:
        cfg = self.config
        return (
            self.label
            or f"{self.kernel}@{self.driver_name}"
            f"[{cfg.num_cores}C-{cfg.num_warps}W-{cfg.num_threads}T]"
        )

    def cache_key(self) -> str:
        """Stable content hash identifying *what this job computes*.

        The key covers everything the deterministic simulators consume —
        the assembled program bytes (with image base and entry point), the
        problem size (``size=None`` resolves to the kernel's default, since
        both launch identically), the verification flag, the full config
        payload, the driver spec and the launch options — via the
        canonical encodings of :mod:`repro.runtime.serialize`.  Equal jobs
        hash equal even when constructed differently (spec strings and
        :class:`DriverSpec` instances parse to one spec); any semantic field
        perturbation changes the key.

        ``label`` is deliberately excluded: it is presentation metadata and
        does not change the computed result, so relabeled resubmissions of
        the same job still hit the service cache.

        Raises ``KeyError`` for a kernel name not in the registry — such a
        job has no content to key (the service treats it as uncacheable and
        lets the worker report the deterministic failure).  Every field is
        frozen, so the digest is computed once per instance and memoized.
        """
        memo = self.__dict__.get("_cache_key")
        if memo is not None:
            return memo
        kernel = _kernel(self.kernel)
        program = kernel.build_program()
        material: dict[str, Any] = {
            "program": hashlib.sha256(program.to_bytes()).hexdigest(),
            "base": program.base,
            "entry": program.entry,
            "kernel": self.kernel,
            "size": self.size if self.size is not None else kernel.default_size(),
            "verify": self.verify,
            "config": config_payload(self.config),
            "spec": spec_payload(self.spec),
            "options": options_payload(self.options),
        }
        if self.restart_midpoint:
            # Only keyed when set, so every pre-existing job keeps its key.
            # The restore path *should* compute the identical result, but a
            # serializer bug must surface as a mismatch between the two — never
            # be masked by a cache hit on the straight-through result.
            material["restart_midpoint"] = True
        key = content_digest(material)
        object.__setattr__(self, "_cache_key", key)
        return key


@dataclass
class JobResult:
    """Outcome of one executed job."""

    job: KernelJob
    report: ExecutionReport | None = None
    passed: bool = False
    wall_seconds: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    error: str | None = None
    #: Machine-readable exception type when the job errored: the raising
    #: exception's class name for deterministic kernel failures
    #: (``"KeyError"``, ``"SimulationLimitExceeded"``) or the service-level
    #: infrastructure classifications (``"WorkerCrash"``, ``"JobTimeout"``).
    #: Retry policies branch on this — infrastructure failures are
    #: retryable, deterministic failures are not.
    error_type: str | None = None
    #: Execution attempts the backend made (1 = the first try answered).
    attempts: int = 1
    #: True when the result was served without executing — from the
    #: service's content-addressed cache or by inflight deduplication.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.passed

    def to_payload(self) -> dict[str, Any]:
        """A JSON-ready payload (report serialized via its own payload)."""
        return {
            "job": {
                "kernel": self.job.kernel,
                "label": self.job.label,
                "driver": self.job.driver_name,
                "size": self.job.size,
                "verify": self.job.verify,
            },
            "scenario": self.job.describe(),
            "ok": self.ok,
            "passed": self.passed,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "cached": self.cached,
            "report": self.report.to_payload() if self.report is not None else None,
        }


def _run_enveloped(
    job: KernelJob, body: Callable[[], tuple[ExecutionReport, bool]]
) -> JobResult:
    """Time ``body`` and wrap its ``(report, passed)`` in a :class:`JobResult`.

    The one job-execution envelope: any exception ``body`` raises becomes an
    error result (``error`` text plus machine-readable ``error_type``)
    instead of propagating, so one bad point never takes down a batch or a
    worker process.
    """
    started = time.time()
    clock = time.perf_counter()
    try:
        report, passed = body()
    except Exception as exc:
        return JobResult(
            job=job,
            wall_seconds=time.perf_counter() - clock,
            started_at=started,
            finished_at=time.time(),
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__,
        )
    return JobResult(
        job=job,
        report=report,
        passed=passed,
        wall_seconds=time.perf_counter() - clock,
        started_at=started,
        finished_at=time.time(),
    )


#: Midpoint at which restart-leg jobs pause and checkpoint: cycles on the
#: cycle-level driver, retired warp instructions on the functional one.
#: Small enough that every grid kernel is genuinely mid-flight.
RESTART_MIDPOINT_UNITS = 400


def execute_job(
    job: KernelJob,
    *,
    checkpoint_every: int | None = None,
    checkpoint_sink: Callable[[dict], None] | None = None,
    resume_from: dict | None = None,
) -> JobResult:
    """Run one job on a fresh device (module-level: picklable for pools).

    The resumable forms compose and report bit-identically to the plain
    run: ``resume_from`` continues from a device checkpoint envelope;
    ``checkpoint_every`` runs in chunks of N driver units (cycles on SIMX,
    instructions on funcsim), handing ``checkpoint_sink`` the envelope after
    each paused chunk; ``job.restart_midpoint`` first runs
    :data:`RESTART_MIDPOINT_UNITS`, pickles the checkpoint (proving it is
    cross-process safe) and finishes on a *second* fresh device — unless the
    kernel already completed, which is then a straight-through run.

    A device that receives an envelope stages the kernel like any other and
    restores over itself: staging is deterministic (seeded inputs, fresh
    bump allocator), so it binds the verification context to the device and
    the restore rewinds memory, allocator and simulator.
    """
    from repro.runtime.device import VortexDevice

    def body() -> tuple[ExecutionReport, bool]:
        kernel = _kernel(job.kernel)
        size = job.size if job.size is not None else kernel.default_size()

        def stage(envelope: dict | None) -> tuple[VortexDevice, dict]:
            device = VortexDevice(job.config, driver=job.spec)
            device.upload_program(kernel.build_program())
            context = kernel.setup(device, size)
            if envelope is not None:
                device.restore(envelope)
            return device, context

        def finish(device: VortexDevice, resume: bool) -> ExecutionReport:
            if checkpoint_every is not None:
                return device.launch_resumable(
                    options=job.options,
                    checkpoint_every=checkpoint_every,
                    checkpoint_sink=checkpoint_sink,
                    resume=resume,
                )
            if resume:
                return device.driver.run(None, options=job.options, resume=True)
            return device.launch(options=job.options)

        device, context = stage(resume_from)
        resume = resume_from is not None
        if job.restart_midpoint:
            report = device.launch_chunk(
                RESTART_MIDPOINT_UNITS, options=job.options, resume=resume
            )
            if not device.driver.done:
                device, context = stage(pickle.loads(pickle.dumps(device.checkpoint())))
                report = finish(device, resume=True)
        else:
            report = finish(device, resume)
        passed = kernel.verify(device, context) if job.verify else True
        return report, passed

    return _run_enveloped(job, body)


class JobQueue:
    """A FIFO of jobs waiting for the next batch run."""

    def __init__(self, jobs: Sequence[KernelJob] | None = None):
        self._jobs: list[KernelJob] = list(jobs or [])

    def add(self, job: KernelJob) -> None:
        self._jobs.append(job)

    def extend(self, jobs: Sequence[KernelJob]) -> None:
        self._jobs.extend(jobs)

    def drain(self) -> list[KernelJob]:
        """Remove and return all queued jobs."""
        jobs, self._jobs = self._jobs, []
        return jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[KernelJob]:
        return iter(self._jobs)


@dataclass
class BatchReport:
    """Aggregate outcome of one :meth:`Session.run_batch` call."""

    results: list[JobResult]
    wall_seconds: float
    max_workers: int
    executor: str

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def peak_concurrency(self) -> int:
        """Largest number of jobs whose execution intervals overlapped."""
        events: list[tuple[float, int]] = []
        for result in self.results:
            events.append((result.started_at, 1))
            events.append((result.finished_at, -1))
        peak = current = 0
        for _, delta in sorted(events):
            current += delta
            peak = max(peak, current)
        return peak

    @property
    def total_simulated_instructions(self) -> int:
        return sum(r.report.instructions for r in self.results if r.report is not None)

    @property
    def cache_hits(self) -> int:
        """Jobs served without execution (service cache or inflight dedup)."""
        return sum(1 for result in self.results if result.cached)

    def by_label(self) -> dict[str, JobResult]:
        return {result.job.describe(): result for result in self.results}

    def to_payload(self) -> dict[str, Any]:
        """A JSON-ready payload built from each result's own payload."""
        return {
            "benchmark": "session batch",
            "generated_by": "Session.run_batch",
            "ok": self.ok,
            "wall_seconds": self.wall_seconds,
            "executor": self.executor,
            "max_workers": self.max_workers,
            "cache_hits": self.cache_hits,
            "results": [result.to_payload() for result in self.results],
        }

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (
            f"[session] {len(self.results)} jobs in {self.wall_seconds:.2f}s "
            f"({self.executor} x{self.max_workers}, peak {self.peak_concurrency} "
            f"concurrent) {status}"
        )


def diff_execution_reports(reference: ExecutionReport, subject: ExecutionReport) -> list[str]:
    """Diff two :class:`ExecutionReport`\\ s down to every counter.

    Returns human-readable ``"what: ref != subj"`` strings; empty means the
    reports are bit-identical in cycles, instruction counts and every
    per-component performance counter.
    """
    diffs: list[str] = []
    for attr in ("cycles", "instructions", "thread_instructions"):
        ref, subj = getattr(reference, attr), getattr(subject, attr)
        if ref != subj:
            diffs.append(f"{attr}: {ref} != {subj}")
    components = sorted(set(reference.counters) | set(subject.counters))
    for component in components:
        ref_counters = reference.counters.get(component, {})
        subj_counters = subject.counters.get(component, {})
        for name in sorted(set(ref_counters) | set(subj_counters)):
            ref_count = ref_counters.get(name, 0)
            subj_count = subj_counters.get(name, 0)
            if ref_count != subj_count:
                diffs.append(f"{component}.{name}: {ref_count} != {subj_count}")
    return diffs


class Session:
    """Launches batches of (kernel, config) jobs concurrently.

    ``executor`` selects the execution backend: ``"process"`` (default when
    the platform supports fork) runs each job in a worker process for true
    parallelism; ``"thread"`` uses threads (lighter weight, still
    concurrent, useful under constrained environments and in tests);
    ``"serial"`` runs inline (debugging); ``"service"`` routes batches
    through a :class:`repro.service.SimulationService` — a sharded worker
    fleet with a content-addressed result cache, so repeat-heavy sweep
    traffic (Fig 14/18/19 clients) short-circuits to cache hits.

    For the service backend, pass an existing
    :class:`~repro.service.client.ServiceClient` as ``service`` to share a
    fleet (and its cache) across sessions, or a
    :class:`~repro.service.server.ServiceConfig` as ``service_config`` to
    let the session own one (created lazily, shut down by :meth:`close`).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        executor: str | None = None,
        service: ServiceClient | None = None,
        service_config: ServiceConfig | None = None,
    ):
        if executor is None:
            executor = "process" if hasattr(os, "fork") else "thread"
        if executor not in ("process", "thread", "serial", "service"):
            raise ValueError(f"unknown executor {executor!r}")
        self.executor = executor
        # Floor of 4: even on small hosts a batch should overlap several
        # simulations (jobs block on different pages/pool pipes, and the
        # acceptance bar for a sweep is >= 4 jobs in flight).
        self.max_workers = max_workers or max(4, min(8, os.cpu_count() or 4))
        self.queue = JobQueue()
        self._service_client = service
        self._service_config = service_config
        self._owns_service = service is None

    # -- job submission -----------------------------------------------------------------

    def submit(self, job: KernelJob) -> None:
        """Queue one job for the next batch."""
        self.queue.add(job)

    def submit_sweep(
        self,
        kernel: str,
        configs: Sequence[VortexConfig],
        driver: str = "simx",
        size: int | None = None,
    ) -> None:
        """Queue one job per configuration for the same kernel."""
        for config in configs:
            self.queue.add(KernelJob(kernel=kernel, config=config, driver=driver, size=size))

    # -- the service backend ------------------------------------------------------------

    def service_client(self) -> ServiceClient:
        """The session's service backend (created lazily when owned)."""
        if self._service_client is None:
            from repro.service.client import ServiceClient

            self._service_client = ServiceClient(self._service_config)
        return self._service_client

    def close(self) -> None:
        """Shut down an owned service backend (no-op otherwise)."""
        if self._owns_service and self._service_client is not None:
            self._service_client.close()
            self._service_client = None

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ----------------------------------------------------------------------

    def run_batch(self, jobs: Sequence[KernelJob] | None = None) -> BatchReport:
        """Execute ``jobs`` (or everything queued) concurrently.

        Results are returned in submission order regardless of completion
        order.  A failing job never aborts the batch: its ``JobResult``
        carries the error string instead.
        """
        batch = list(jobs) if jobs is not None else self.queue.drain()
        start = time.perf_counter()
        if not batch:
            return BatchReport([], 0.0, self.max_workers, self.executor)
        workers = self.max_workers
        if self.executor == "service":
            client = self.service_client()
            results = client.run_jobs(batch)
            workers = client.num_shards
        elif self.executor == "serial" or len(batch) == 1:
            results = [execute_job(job) for job in batch]
        else:
            pool_cls = ProcessPoolExecutor if self.executor == "process" else ThreadPoolExecutor
            try:
                pool = pool_cls(max_workers=self.max_workers)
            except (OSError, ImportError):
                # The pool could not be brought up at all (constrained
                # sandbox): degrade to in-process execution.
                results = [execute_job(job) for job in batch]
            else:
                results = self._run_on_pool(pool, batch)
        wall = time.perf_counter() - start
        return BatchReport(results, wall, workers, self.executor)

    #: Execute one job inline, optionally chunked/resumed: this *is*
    #: :func:`execute_job` (``session.run(job, checkpoint_every=N, ...)``).
    run = staticmethod(execute_job)

    @staticmethod
    def _run_on_pool(pool: Executor, batch: list[KernelJob]) -> list[JobResult]:
        """Submit one future per job and collect results in order.

        If a worker dies (e.g. a poison job is OOM-killed, breaking the
        pool), completed jobs keep their results and the broken or
        never-submitted ones are marked failed — the batch is never rerun
        in the parent process.
        """
        with pool:
            futures: list[Future[JobResult] | None] = []
            submit_error: str | None = None
            submit_error_type: str | None = None
            for job in batch:
                if submit_error is None:
                    try:
                        futures.append(pool.submit(execute_job, job))
                    except BrokenExecutor as exc:
                        submit_error = f"{type(exc).__name__}: {exc}"
                        submit_error_type = type(exc).__name__
                        futures.append(None)
                else:
                    futures.append(None)
            results: list[JobResult] = []
            for job, future in zip(batch, futures):
                if future is None:
                    results.append(
                        JobResult(job=job, error=submit_error, error_type=submit_error_type)
                    )
                    continue
                try:
                    results.append(future.result())
                except Exception as exc:
                    results.append(
                        JobResult(
                            job=job,
                            error=f"{type(exc).__name__}: {exc}",
                            error_type=type(exc).__name__,
                        )
                    )
        return results


def design_point_jobs(
    kernel: str,
    points: dict[str, tuple[int, int]],
    base: VortexConfig | None = None,
    driver: str = "simx",
    size: int | None = None,
) -> list[KernelJob]:
    """Jobs for the Table-3-style (warps, threads) design points."""
    base = base or VortexConfig()
    jobs: list[KernelJob] = []
    for label, (warps, threads) in points.items():
        config = base.with_warps_threads(warps, threads)
        jobs.append(
            KernelJob(kernel=kernel, config=config, driver=driver, size=size, label=label)
        )
    return jobs
