"""Content-addressed result cache for the simulation service.

The simulators are deterministic (vxlint VX001 enforces it), so a completed
job's outcome is fully determined by its
:meth:`~repro.runtime.jobs.KernelJob.cache_key`.  The cache stores the
*payload* form of the outcome — the
:meth:`~repro.runtime.report.ExecutionReport.to_payload` dict plus the
verification flag — and every hit reconstructs a fresh
:class:`~repro.runtime.jobs.JobResult` from it.  Round-tripping through
the payload is what makes replays bit-identical: the served report is
rebuilt from the exact dict a cold run would serialize to.

Only *deterministic outcomes* are cacheable: successful runs and
verification failures (``passed=False`` with no error — rerunning cannot
change the answer).  Errored results are never stored, so a transient
infrastructure failure can never poison the cache.

Accounting is explicit — :meth:`lookup` does not count anything itself;
the server counts hits, misses and dedups, so an inflight dedup is not
double-counted as a miss.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any

from repro.runtime.jobs import JobResult, KernelJob
from repro.runtime.report import ExecutionReport


@dataclass(frozen=True)
class CachedResult:
    """The deterministic portion of a completed job's outcome."""

    passed: bool
    report_payload: dict[str, Any] | None
    #: wall-clock of the run that produced the entry (served back so cached
    #: results still report what the simulation originally cost).
    source_wall_seconds: float

    @classmethod
    def from_result(cls, result: JobResult) -> CachedResult:
        return cls(
            passed=result.passed,
            report_payload=result.report.to_payload() if result.report is not None else None,
            source_wall_seconds=result.wall_seconds,
        )

    def to_result(self, job: KernelJob) -> JobResult:
        """Materialize a served :class:`JobResult` for ``job``.

        ``attempts=0`` records that the backend executed nothing;
        ``wall_seconds`` carries the *original* run's cost (the serve itself
        is effectively free and the batch wall-clock captures it anyway).
        """
        report = (
            ExecutionReport.from_payload(self.report_payload)
            if self.report_payload is not None
            else None
        )
        return JobResult(
            job=job,
            report=report,
            passed=self.passed,
            wall_seconds=self.source_wall_seconds,
            attempts=0,
            cached=True,
        )


@dataclass
class CacheStats:
    """Hit/miss/dedup accounting for one service lifetime."""

    hits: int = 0
    misses: int = 0
    inflight_dedup: int = 0
    uncacheable: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        served = self.hits + self.misses + self.inflight_dedup
        return self.hits / served if served else 0.0

    def to_payload(self) -> dict[str, Any]:
        return {**asdict(self), "hit_rate": self.hit_rate}


class ResultCache:
    """LRU-bounded map from cache key to :class:`CachedResult`."""

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[str, CachedResult] = OrderedDict()

    def lookup(self, key: str) -> CachedResult | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def store(self, key: str, entry: CachedResult) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries
