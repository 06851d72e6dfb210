"""The blocking client of :class:`~repro.service.server.SimulationService`.

One client = one worker fleet + one result cache; callers that share a
client share both.  Every method blocks its caller; a batch of cache hits
is served in the caller's thread.  The fleet's worker processes live until
:meth:`ServiceClient.close` — use the client as a context manager.
``ServiceConfig(num_shards=1, worker_mode="inline")`` serves batches
serially in this process.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import Any

from repro.runtime.jobs import BatchReport, JobResult, KernelJob
from repro.service.server import ServiceConfig, SimulationService


class ServiceClient:
    """A started :class:`SimulationService` fleet, with batch reports."""

    def __init__(self, config: ServiceConfig | None = None):
        self._service = SimulationService(config)
        self._service.start()

    # -- serving ------------------------------------------------------------------------

    def run_jobs(self, jobs: list[KernelJob]) -> list[JobResult]:
        """Serve a batch (blocking), results in submission order."""
        return self._service.run_batch(list(jobs))

    def run_job(self, job: KernelJob) -> JobResult:
        """Serve one job (blocking)."""
        return self.run_jobs([job])[0]

    def run_batch(self, jobs: Sequence[KernelJob]) -> BatchReport:
        """Serve ``jobs`` (blocking) and aggregate them into a :class:`BatchReport`.

        Results are in submission order.  A failing job never aborts the
        batch: its ``JobResult`` carries the error string instead.
        """
        start = time.perf_counter()
        results = self.run_jobs(list(jobs))
        return BatchReport(results, time.perf_counter() - start, self.num_shards)

    # -- introspection ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._service.num_shards

    @property
    def config(self) -> ServiceConfig:
        return self._service.config

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot of serving + cache statistics."""
        return self._service.stats_payload()

    def worker_pids(self) -> list[int | None]:
        return self._service.worker_pids()

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the fleet (idempotent); serving afterwards raises."""
        self._service.close()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
