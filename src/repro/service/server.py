"""The asyncio simulation service: sharded dispatch, retries, result cache.

:class:`SimulationService` is the serving core behind
``Session(executor="service")``.  A submitted
:class:`~repro.engine.session.KernelJob` flows through four stages:

1. **Identity** — :meth:`KernelJob.cache_key` computes the job's canonical
   content hash (program bytes + config + spec + options).  Jobs
   whose key cannot be computed (unknown kernel) are uncacheable and go
   straight to a worker, which reports the deterministic failure.
2. **Cache / dedup** — a key already completed is served from the
   content-addressed :class:`~repro.service.cache.ResultCache`
   (bit-identical payload replay); a key currently *in flight* awaits the
   existing execution instead of enqueueing a duplicate.
3. **Sharding + backpressure** — the key routes to a fixed shard
   (``int(key[:8], 16) % num_shards``, so identical jobs serialize onto the
   same worker and its warm state), through a bounded ``asyncio.Queue``:
   when a shard's queue is full, ``submit`` *blocks* — backpressure
   propagates to the client instead of buffering unboundedly.
4. **Execution + retry** — the shard's consumer runs the job on its worker
   with a per-job timeout.  Infrastructure failures
   (:class:`~repro.service.worker.WorkerCrash`,
   :class:`~repro.service.worker.JobTimeout`) respawn the worker and retry
   with exponential backoff up to ``max_attempts``; *deterministic* job
   failures (the worker answered with an error) are returned immediately —
   retrying cannot change a deterministic outcome, and they are never
   cached, so a failure cannot poison the cache either.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro.engine.session import JobResult, KernelJob
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
    #: Bounded per-shard queue depth; a full queue blocks ``submit``.
    queue_depth: int = 16
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
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


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
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "respawns": self.respawns,
            "deterministic_failures": self.deterministic_failures,
        }


@dataclass
class _Shard:
    """One worker, its bounded queue, and its consumer task."""

    index: int
    worker: ProcessWorker | InlineWorker
    queue: asyncio.Queue[tuple[KernelJob, str | None, asyncio.Future[JobResult]]]
    consumer: asyncio.Task[None] | None = None
    enqueued: int = field(default=0)


class SimulationService:
    """Async sharded job server with a content-addressed result cache.

    Lifecycle: ``await start()`` brings up the worker fleet, then
    :meth:`submit` / :meth:`run_batch` serve jobs until ``await close()``.
    Also usable as an async context manager.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.cache = ResultCache(max_entries=self.config.cache_entries)
        self.stats = ServiceStats()
        self._shards: list[_Shard] = []
        self._inflight: dict[str, asyncio.Future[JobResult]] = {}
        self._round_robin = 0
        self._started = False

    # -- lifecycle ----------------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        loop = asyncio.get_running_loop()
        for index in range(self.config.num_shards):
            worker = await loop.run_in_executor(None, create_worker, self.config.worker_mode)
            shard = _Shard(
                index=index,
                worker=worker,
                queue=asyncio.Queue(maxsize=self.config.queue_depth),
            )
            shard.consumer = asyncio.ensure_future(self._consume(shard))
            self._shards.append(shard)
        self._started = True

    async def close(self) -> None:
        for shard in self._shards:
            if shard.consumer is not None:
                shard.consumer.cancel()
        for shard in self._shards:
            if shard.consumer is not None:
                try:
                    await shard.consumer
                except asyncio.CancelledError:
                    pass
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            await loop.run_in_executor(None, shard.worker.stop)
        self._shards = []
        self._started = False

    async def __aenter__(self) -> SimulationService:
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    @property
    def num_shards(self) -> int:
        return len(self._shards) or self.config.num_shards

    def worker_pids(self) -> list[int | None]:
        """The live worker pids, by shard (``None`` for inline fallbacks)."""
        return [shard.worker.pid for shard in self._shards]

    def stats_payload(self) -> dict[str, Any]:
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

    def _shard_for(self, key: str | None) -> _Shard:
        if key is not None:
            index = int(key[:8], 16) % len(self._shards)
        else:
            index = self._round_robin % len(self._shards)
            self._round_robin += 1
        return self._shards[index]

    async def submit(self, job: KernelJob) -> JobResult:
        """Serve one job: cache hit, inflight dedup, or enqueue + await.

        Blocks (asynchronously) when the target shard's queue is full —
        this is the backpressure bound.
        """
        if not self._started:
            await self.start()
        self.stats.submitted += 1
        key = self._job_key(job)
        if key is None:
            self.cache.stats.note_uncacheable()
            return await self._enqueue(job, None)
        cached = self.cache.lookup(key)
        if cached is not None:
            self.cache.stats.note_hit()
            return cached.to_result(job)
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.cache.stats.note_dedup()
            primary = await asyncio.shield(inflight)
            return self._replay_for(primary, job)
        self.cache.stats.note_miss()
        return await self._enqueue(job, key)

    async def run_batch(self, jobs: list[KernelJob]) -> list[JobResult]:
        """Serve a batch concurrently, results in submission order."""
        return list(await asyncio.gather(*(self.submit(job) for job in jobs)))

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

    async def _enqueue(self, job: KernelJob, key: str | None) -> JobResult:
        loop = asyncio.get_running_loop()
        future: asyncio.Future[JobResult] = loop.create_future()
        if key is not None:
            self._inflight[key] = future
        shard = self._shard_for(key)
        try:
            await shard.queue.put((job, key, future))
        except BaseException:
            if key is not None and self._inflight.get(key) is future:
                del self._inflight[key]
            raise
        shard.enqueued += 1
        try:
            return await asyncio.shield(future)
        finally:
            if key is not None and self._inflight.get(key) is future:
                del self._inflight[key]

    # -- execution ----------------------------------------------------------------------

    async def _consume(self, shard: _Shard) -> None:
        """Shard consumer: drain the queue, one job at a time, with retries."""
        while True:
            job, key, future = await shard.queue.get()
            try:
                result = await self._execute_with_retry(shard, job)
            except asyncio.CancelledError:
                if not future.done():
                    future.cancel()
                raise
            except Exception as exc:  # defensive: consumer must never die
                result = JobResult(
                    job=job,
                    error=f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                )
            if key is not None and result.error is None:
                # Only deterministic outcomes (success or a verification
                # failure) enter the cache; errors never do.
                self.cache.store(key, CachedResult.from_result(result))
            if not future.done():
                future.set_result(result)
            shard.queue.task_done()

    async def _execute_with_retry(self, shard: _Shard, job: KernelJob) -> JobResult:
        loop = asyncio.get_running_loop()
        last_error: Exception | None = None
        for attempt in range(1, self.config.max_attempts + 1):
            try:
                result = await loop.run_in_executor(
                    None, shard.worker.request, job, self.config.job_timeout
                )
            except (WorkerCrash, JobTimeout) as exc:
                last_error = exc
                if isinstance(exc, JobTimeout):
                    self.stats.timeouts += 1
                else:
                    self.stats.worker_crashes += 1
                await self._respawn(shard)
                if attempt < self.config.max_attempts:
                    self.stats.retries += 1
                    await asyncio.sleep(self.config.retry_backoff * 2 ** (attempt - 1))
                continue
            self.stats.executed += 1
            result.attempts = attempt
            if result.error is not None:
                self.stats.deterministic_failures += 1
            return result
        assert last_error is not None
        return JobResult(
            job=job,
            error=f"{type(last_error).__name__}: {last_error}",
            error_type=type(last_error).__name__,
            attempts=self.config.max_attempts,
        )

    async def _respawn(self, shard: _Shard) -> None:
        """Replace a dead/killed worker with a fresh one."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, shard.worker.terminate)
        shard.worker = await loop.run_in_executor(
            None, create_worker, self.config.worker_mode
        )
        self.stats.respawns += 1
