"""The simulation service: shared-queue dispatch, retries, result cache.

:class:`SimulationService` is the serving core behind every
:class:`~repro.service.client.ServiceClient` batch.  It is plain threads:
:meth:`~SimulationService.start` builds one worker and one consumer thread
per shard, and :meth:`~SimulationService.run_batch` blocks its caller.  A
submitted :class:`~repro.runtime.jobs.KernelJob` flows through four stages:

1. **Identity** — :meth:`KernelJob.cache_key` computes the job's canonical
   content hash (program bytes + config + spec + options).  Jobs
   whose key cannot be computed (unknown kernel) are uncacheable and go
   straight to a worker, which reports the deterministic failure.
2. **Cache / dedup** — in the caller's thread: a key already completed is
   served from the content-addressed
   :class:`~repro.service.cache.ResultCache` (bit-identical payload
   replay), so a batch of hits never reaches a consumer; a key currently
   *in flight* waits on the existing execution's future instead of
   enqueueing a duplicate.
3. **Dispatch** — the job enters the one unbounded queue every shard's
   consumer pulls from, so the next free worker takes it, as in a process
   pool.  A blocking batch is already a list in the caller's memory, so a
   bound on the queue would buffer nothing less.
4. **Execution + retry** — the consumer runs the job on its shard's worker
   with a per-job timeout.  Infrastructure failures
   (:class:`~repro.service.worker.WorkerCrash`,
   :class:`~repro.service.worker.JobTimeout`) respawn the worker and retry
   with exponential backoff up to ``max_attempts``; *deterministic* job
   failures (the worker answered with an error) are returned immediately —
   retrying cannot change a deterministic outcome, and they are never
   cached, so a failure cannot poison the cache either.

One lock guards the in-flight map, the result cache and the statistics.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Any

from repro.runtime.jobs import JobResult, KernelJob
from repro.service.cache import CachedResult, ResultCache
from repro.service.worker import (
    InlineWorker,
    JobTimeout,
    ProcessWorker,
    WorkerCrash,
    create_worker,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`SimulationService`."""

    #: Worker shards (= processes = max jobs simulating concurrently).
    num_shards: int = 4
    #: Per-job wall-clock budget in seconds (the worker is killed past it).
    job_timeout: float | None = 120.0
    #: Total execution attempts per job (1 first try + retries).
    max_attempts: int = 3
    #: Base backoff before retry ``n`` waits ``retry_backoff * 2**(n-1)``.
    retry_backoff: float = 0.05
    #: ``"process"`` | ``"inline"`` | ``"auto"`` (process, falling back).
    worker_mode: str = "auto"
    #: Result-cache capacity (entries).
    cache_entries: int = 4096

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.worker_mode not in ("process", "inline", "auto"):
            raise ValueError(f"unknown worker_mode {self.worker_mode!r}")


@dataclass
class ServiceStats:
    """Serving-side accounting (cache accounting lives on the cache)."""

    submitted: int = 0
    executed: int = 0
    retries: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    respawns: int = 0
    deterministic_failures: int = 0

    def to_payload(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class _Shard:
    """One worker; its consumer thread replaces it on a respawn."""

    worker: ProcessWorker | InlineWorker


def _error_result(job: KernelJob, exc: BaseException, attempts: int) -> JobResult:
    return JobResult(
        job=job,
        error=f"{type(exc).__name__}: {exc}",
        error_type=type(exc).__name__,
        attempts=attempts,
    )


class SimulationService:
    """Job server over a worker fleet, with a content-addressed result cache.

    Lifecycle: :meth:`start` brings up the worker fleet, then
    :meth:`run_batch` serves jobs until :meth:`close`.  Also usable as a
    context manager.  A closed service does not start again.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.cache = ResultCache(max_entries=self.config.cache_entries)
        self.stats = ServiceStats()
        self._shards: list[_Shard] = []
        self._consumers: list[threading.Thread] = []
        #: Queued ``(job, key, future)``; ``None`` stops the consumer that takes it.
        self._queue: queue.SimpleQueue[
            tuple[KernelJob, str | None, Future[JobResult]] | None
        ] = queue.SimpleQueue()
        self._inflight: dict[str, Future[JobResult]] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------------

    def start(self) -> None:
        """Build one worker and one consumer thread per shard (idempotent).

        A fleet that fails to come up stops what it started before the
        error propagates.
        """
        if self._closed:
            raise RuntimeError("SimulationService is closed")
        if self._shards:
            return
        try:
            for _ in range(self.config.num_shards):
                shard = _Shard(create_worker(self.config.worker_mode))
                self._shards.append(shard)
                consumer = threading.Thread(
                    target=self._consume, args=(shard,), name="repro-service", daemon=True
                )
                consumer.start()
                self._consumers.append(consumer)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the workers, then join the consumers (idempotent).

        Nothing is retried once the service is closed: a job whose worker
        stops under it ends as an error result.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = [shard.worker for shard in self._shards]
        for _ in self._consumers:
            self._queue.put(None)
        for worker in workers:
            worker.stop()
        for consumer in self._consumers:
            consumer.join()
        self._shards = []
        self._consumers = []

    def __enter__(self) -> SimulationService:
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def num_shards(self) -> int:
        return len(self._shards) or self.config.num_shards

    def worker_pids(self) -> list[int | None]:
        """The live worker pids, by shard (``None`` for inline fallbacks)."""
        return [shard.worker.pid for shard in self._shards]

    def stats_payload(self) -> dict[str, Any]:
        with self._lock:
            payload = self.stats.to_payload()
            payload["cache"] = self.cache.stats.to_payload()
        payload["num_shards"] = self.num_shards
        return payload

    # -- submission ---------------------------------------------------------------------

    @staticmethod
    def _job_key(job: KernelJob) -> str | None:
        """The job's cache key, or ``None`` when it has none (uncacheable)."""
        try:
            return job.cache_key()
        except Exception:
            return None

    def run_batch(self, jobs: list[KernelJob]) -> list[JobResult]:
        """Serve a batch (blocking), results in submission order.

        Every job is submitted before any is waited on, so the shards run
        the batch's misses concurrently.
        """
        if self._closed or not self._shards:
            raise RuntimeError("SimulationService is not running")
        submitted = [self._submit(job) for job in jobs]
        results: list[JobResult] = []
        for job, (outcome, follower) in zip(jobs, submitted):
            if isinstance(outcome, Future):
                outcome = outcome.result()
                if follower:
                    outcome = self._replay_for(outcome, job)
            results.append(outcome)
        return results

    def _submit(self, job: KernelJob) -> tuple[JobResult | Future[JobResult], bool]:
        """A cache hit's result, or the future to wait on and whether it is
        another job's execution (an inflight dedup)."""
        key = self._job_key(job)
        with self._lock:
            self.stats.submitted += 1
            if key is not None:
                cached = self.cache.lookup(key)
                if cached is not None:
                    self.cache.stats.hits += 1
                    return cached.to_result(job), False
                inflight = self._inflight.get(key)
                if inflight is not None:
                    self.cache.stats.inflight_dedup += 1
                    return inflight, True
            future: Future[JobResult] = Future()
            if key is None:
                self.cache.stats.uncacheable += 1
            else:
                self.cache.stats.misses += 1
                self._inflight[key] = future
        self._queue.put((job, key, future))
        return future, False

    def _replay_for(self, primary: JobResult, job: KernelJob) -> JobResult:
        """A dedup follower's result: the primary's outcome for *this* job."""
        if primary.error is not None:
            # The primary failed; the follower reports the same failure
            # (deterministic) without pretending it executed.
            return JobResult(
                job=job,
                error=primary.error,
                error_type=primary.error_type,
                attempts=0,
                cached=True,
            )
        return CachedResult.from_result(primary).to_result(job)

    # -- execution ----------------------------------------------------------------------

    def _consume(self, shard: _Shard) -> None:
        """Shard consumer: run queued jobs one at a time until told to stop."""
        while (item := self._queue.get()) is not None:
            job, key, future = item
            try:
                result = self._execute_with_retry(shard, job)
            except Exception as exc:  # defensive: a consumer must never die
                result = _error_result(job, exc, attempts=1)
            # Only deterministic outcomes (success or a verification
            # failure) enter the cache; errors never do.
            entry = None
            if key is not None and result.error is None:
                entry = CachedResult.from_result(result)
            with self._lock:
                if key is not None:
                    del self._inflight[key]
                if entry is not None:
                    self.cache.store(key, entry)
            future.set_result(result)

    def _count(self, field: str) -> None:
        with self._lock:
            setattr(self.stats, field, getattr(self.stats, field) + 1)

    def _execute_with_retry(self, shard: _Shard, job: KernelJob) -> JobResult:
        attempt = 1
        while True:
            try:
                result = shard.worker.request(job, self.config.job_timeout)
            except (WorkerCrash, JobTimeout) as exc:
                self._count("timeouts" if isinstance(exc, JobTimeout) else "worker_crashes")
                if not self._respawn(shard) or attempt == self.config.max_attempts:
                    return _error_result(job, exc, attempt)
                self._count("retries")
                time.sleep(self.config.retry_backoff * 2 ** (attempt - 1))
                attempt += 1
                continue
            self._count("executed")
            result.attempts = attempt
            if result.error is not None:
                self._count("deterministic_failures")
            return result

    def _respawn(self, shard: _Shard) -> bool:
        """Replace a dead/killed worker with a fresh one; False (and no
        worker left running) once the service is closing."""
        shard.worker.terminate()
        worker = create_worker(self.config.worker_mode)
        with self._lock:
            if not self._closed:
                shard.worker = worker
                self.stats.respawns += 1
                return True
        worker.stop()
        return False
