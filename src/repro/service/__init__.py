"""Simulation-as-a-service: a blocking job server + content-addressed cache.

Public surface:

* :class:`SimulationService` / :class:`ServiceConfig` — the serving core
  (one consumer thread per worker shard, all pulling from one queue;
  retries; the result cache, consulted in the caller's thread).
* :class:`ServiceClient` — the client scripts use (``run_batch``, ``run_jobs``).
* :class:`ResultCache` / :class:`CacheStats` — the content-addressed cache.
"""

from repro.service.cache import CachedResult, CacheStats, ResultCache
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, ServiceStats, SimulationService
from repro.service.worker import InlineWorker, JobTimeout, ProcessWorker, WorkerCrash

__all__ = [
    "CacheStats",
    "CachedResult",
    "InlineWorker",
    "JobTimeout",
    "ProcessWorker",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceStats",
    "SimulationService",
    "WorkerCrash",
]
