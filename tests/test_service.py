"""Tests for the simulation service: canonical job identity, the
content-addressed result cache, the sharded worker fleet and its failure
paths (crash retry, timeout, backpressure), and the Session backend."""

import asyncio
import dataclasses
import multiprocessing
import os
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.worker as worker_mod
from repro.common.config import VortexConfig
from repro.engine.session import JobResult, KernelJob, Session, execute_job
from repro.runtime.launch import LaunchOptions
from repro.runtime.registry import DriverSpec
from repro.service import (
    CachedResult,
    InlineWorker,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    SimulationService,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

INLINE = ServiceConfig(num_shards=2, worker_mode="inline")


# -- canonical job identity (KernelJob.cache_key) ----------------------------------------


def test_cache_key_is_stable_and_equal_for_equal_jobs():
    a = KernelJob("vecadd", size=64)
    b = KernelJob("vecadd", size=64)
    assert a.cache_key() == b.cache_key()
    assert len(a.cache_key()) == 64  # sha256 hex


def test_cache_key_same_for_spec_string_and_spec_instance():
    canonical = KernelJob("vecadd", size=64, driver="simx:trace=mem").cache_key()
    spec = KernelJob(
        "vecadd", size=64, driver=DriverSpec("simx", options=(("trace", "mem"),))
    ).cache_key()
    assert canonical == spec


def test_cache_key_ignores_label_and_default_size():
    base = KernelJob("vecadd", size=256)
    assert base.cache_key() == KernelJob("vecadd", size=256, label="renamed").cache_key()
    # size=None resolves to the kernel's default (256 for vecadd).
    assert base.cache_key() == KernelJob("vecadd").cache_key()


def test_cache_key_normalizes_default_launch_options():
    assert (
        KernelJob("vecadd").cache_key()
        == KernelJob("vecadd", options=LaunchOptions()).cache_key()
    )
    assert (
        KernelJob("vecadd").cache_key()
        != KernelJob("vecadd", options=LaunchOptions(max_cycles=10)).cache_key()
    )


_PERTURBATIONS = {
    "kernel": lambda job: KernelJob("saxpy", size=job.size),
    "size": lambda job: KernelJob(job.kernel, size=job.size + 1),
    "verify": lambda job: KernelJob(job.kernel, size=job.size, verify=False),
    "driver": lambda job: KernelJob(job.kernel, size=job.size, driver="funcsim"),
    "spec_option": lambda job: KernelJob(job.kernel, size=job.size, driver="simx:trace=mem"),
    "config": lambda job: KernelJob(
        job.kernel, size=job.size, config=VortexConfig().with_warps_threads(8, 8)
    ),
    "options": lambda job: KernelJob(
        job.kernel, size=job.size, options=LaunchOptions(max_cycles=10_000)
    ),
}


@pytest.mark.parametrize("field", sorted(_PERTURBATIONS))
def test_cache_key_changes_on_field_perturbation(field):
    job = KernelJob("vecadd", size=64)
    assert job.cache_key() != _PERTURBATIONS[field](job).cache_key()


@settings(max_examples=25, deadline=None)
@given(
    kernel=st.sampled_from(["vecadd", "saxpy"]),
    size=st.integers(min_value=1, max_value=512),
    verify=st.booleans(),
    driver=st.sampled_from(["simx", "funcsim", "simx:trace=mem"]),
    label=st.text(max_size=8),
)
def test_cache_key_property_equal_jobs_hash_equal(kernel, size, verify, driver, label):
    """Content-equal jobs hash equal regardless of label; the key depends
    only on (and on all of) the semantic fields."""
    a = KernelJob(kernel, size=size, verify=verify, driver=driver, label=label)
    b = KernelJob(kernel, size=size, verify=verify, driver=driver)
    assert a.cache_key() == b.cache_key()
    assert a.cache_key() != KernelJob(kernel, size=size + 512, verify=verify).cache_key()


def test_cache_key_is_computed_once_per_instance(monkeypatch):
    import repro.engine.session as session_mod

    digests = []
    digest = session_mod.content_digest
    monkeypatch.setattr(
        session_mod, "content_digest", lambda material: digests.append(1) or digest(material)
    )
    job = KernelJob("vecadd", size=64)
    assert job.cache_key() == job.cache_key() == KernelJob("vecadd", size=64).cache_key()
    assert len(digests) == 2  # one per instance, not one per call


def test_cache_key_memo_never_holds_an_unknown_kernels_keyerror():
    job = KernelJob("not_registered_yet")
    for _ in range(2):
        with pytest.raises(KeyError):
            job.cache_key()
    assert "_cache_key" not in vars(job)


def test_cache_key_memo_does_not_survive_dataclasses_replace():
    job = KernelJob("vecadd", size=64)
    key = job.cache_key()
    resized = dataclasses.replace(job, size=65)
    assert resized.cache_key() == KernelJob("vecadd", size=65).cache_key() != key
    assert dataclasses.replace(job).cache_key() == key


def test_cache_key_memo_leaves_equality_hash_and_pickling_alone():
    keyed, fresh = KernelJob("vecadd", size=64), KernelJob("vecadd", size=64)
    keyed.cache_key()
    assert keyed == fresh and hash(keyed) == hash(fresh) and repr(keyed) == repr(fresh)
    assert dataclasses.asdict(keyed) == dataclasses.asdict(fresh)
    for job in (keyed, fresh):
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job and hash(clone) == hash(job)
        assert clone.cache_key() == keyed.cache_key()


# -- result cache ------------------------------------------------------------------------


def _result_for(job: KernelJob) -> JobResult:
    return execute_job(job)


def test_cached_result_round_trips_bit_identical_payloads():
    job = KernelJob("vecadd", size=64)
    cold = _result_for(job)
    served = CachedResult.from_result(cold).to_result(job)
    assert served.cached and served.attempts == 0
    assert served.passed == cold.passed
    assert served.report.to_payload() == cold.report.to_payload()


def test_result_cache_is_lru_bounded():
    cache = ResultCache(max_entries=2)
    entry = CachedResult(passed=True, report_payload=None, source_wall_seconds=0.0)
    cache.store("a", entry)
    cache.store("b", entry)
    assert cache.lookup("a") is not None  # refreshes "a"
    cache.store("c", entry)  # evicts "b" (least recently used)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.stats.evictions == 1
    assert len(cache) == 2


def test_result_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        ResultCache(max_entries=0)


# -- service end-to-end (inline workers: fast, no processes) -----------------------------


def test_service_replays_identical_batches_from_cache():
    jobs = [KernelJob("vecadd", size=64), KernelJob("saxpy", size=64)]
    with ServiceClient(INLINE) as client:
        cold = client.run_jobs(jobs)
        warm = client.run_jobs(jobs)
    assert all(r.ok for r in cold) and all(not r.cached for r in cold)
    assert all(r.ok and r.cached and r.attempts == 0 for r in warm)
    for c, w in zip(cold, warm):
        assert w.report.to_payload() == c.report.to_payload()


def test_service_dedups_identical_inflight_jobs():
    jobs = [KernelJob("vecadd", size=64), KernelJob("vecadd", size=64, label="dup")]
    with ServiceClient(INLINE) as client:
        results = client.run_jobs(jobs)
        stats = client.stats()
    assert all(r.ok for r in results)
    # The duplicate never executed: one miss, one inflight dedup.
    assert stats["executed"] == 1
    assert stats["cache"]["misses"] == 1
    assert stats["cache"]["inflight_dedup"] == 1
    assert results[1].cached and results[1].attempts == 0


def test_service_does_not_retry_or_cache_deterministic_failures():
    job = KernelJob("vecadd", size=64, options=LaunchOptions(max_cycles=10))
    with ServiceClient(
        ServiceConfig(num_shards=1, worker_mode="inline", max_attempts=3)
    ) as client:
        first = client.run_job(job)
        second = client.run_job(job)
        stats = client.stats()
    assert first.error_type == "SimulationLimitExceeded"
    assert first.attempts == 1  # deterministic failure: no retries
    assert stats["retries"] == 0
    assert stats["deterministic_failures"] == 2  # ...and not served from cache
    assert second.attempts == 1 and not second.cached


def test_service_treats_unknown_kernels_as_uncacheable():
    with ServiceClient(ServiceConfig(num_shards=1, worker_mode="inline")) as client:
        result = client.run_job(KernelJob("no-such-kernel"))
        stats = client.stats()
    assert result.error_type == "KeyError"
    assert stats["cache"]["uncacheable"] == 1
    assert stats["cache"]["misses"] == 0


def test_service_caches_verification_failures():
    """passed=False without an error is a deterministic outcome: cacheable."""
    # max_instructions large enough to complete but verify=True on a
    # deliberately wrong-size run is hard to fake; instead check the cache
    # policy directly: a passed=False, error=None result is stored.
    cache = ResultCache()
    job = KernelJob("vecadd", size=64)
    failed = JobResult(job=job, report=None, passed=False)
    cache.store(job.cache_key(), CachedResult.from_result(failed))
    served = cache.lookup(job.cache_key()).to_result(job)
    assert served.cached and not served.passed and served.error is None


def test_service_shards_stably_by_key():
    async def scenario():
        async with SimulationService(
            ServiceConfig(num_shards=4, worker_mode="inline")
        ) as service:
            key = KernelJob("vecadd", size=64).cache_key()
            first = service._shard_for(key)
            assert all(service._shard_for(key) is first for _ in range(8))
            # Uncacheable jobs round-robin across all shards.
            indices = {service._shard_for(None).index for _ in range(8)}
            assert indices == {0, 1, 2, 3}

    asyncio.run(scenario())


# -- backpressure ------------------------------------------------------------------------


class _SlowWorker:
    """Test double: a worker whose jobs take a controlled amount of time."""

    def __init__(self, delay: float):
        self.delay = delay
        self.jobs_served = 0
        self.pid = None
        self.alive = True

    def request(self, job, timeout):
        time.sleep(self.delay)
        self.jobs_served += 1
        return JobResult(job=job, passed=True)

    def terminate(self):
        pass

    def stop(self):
        pass


def test_submission_blocks_at_the_backpressure_bound():
    """With queue_depth=1, a third concurrent submit must block in
    ``queue.put`` (not enqueue) until the worker frees a slot."""

    async def scenario():
        async with SimulationService(
            ServiceConfig(num_shards=1, queue_depth=1, worker_mode="inline")
        ) as service:
            shard = service._shards[0]
            shard.worker = _SlowWorker(delay=0.25)
            jobs = [KernelJob("vecadd", size=size) for size in (8, 16, 24)]
            tasks = []
            for job in jobs:
                tasks.append(asyncio.ensure_future(service.submit(job)))
                await asyncio.sleep(0.05)
            # Job 1 is executing, job 2 fills the single queue slot; job 3's
            # put() is blocked by backpressure and has not enqueued.
            assert shard.enqueued == 2
            assert shard.queue.full()
            results = await asyncio.gather(*tasks)
            assert shard.enqueued == 3
            assert all(r.passed for r in results)

    asyncio.run(scenario())


# -- process workers: crash retry + timeout ----------------------------------------------


@pytest.mark.skipif(not HAS_FORK, reason="fault injector needs fork inheritance")
def test_worker_crash_mid_job_is_retried_and_recorded(tmp_path, monkeypatch):
    """A worker dying mid-job (fork-injected os._exit) is respawned and the
    job retried: the batch still fully passes, with the attempt recorded."""
    flag = tmp_path / "crashed-once"

    def injector(job):
        if job.label == "poison" and not flag.exists():
            flag.touch()
            os._exit(1)

    monkeypatch.setattr(worker_mod, "_FAULT_INJECTOR", injector)
    config = ServiceConfig(
        num_shards=1, worker_mode="process", max_attempts=3, retry_backoff=0.01
    )
    with ServiceClient(config) as client:
        result = client.run_job(KernelJob("vecadd", size=64, label="poison"))
        stats = client.stats()
    assert result.ok
    assert result.attempts == 2  # crashed once, succeeded on retry
    assert stats["worker_crashes"] == 1
    assert stats["respawns"] == 1
    assert stats["retries"] == 1


@pytest.mark.skipif(not HAS_FORK, reason="deterministic crash needs fork inheritance")
def test_worker_crash_exhausting_attempts_reports_infrastructure_error(monkeypatch):
    def injector(job):
        if job.label == "always-dies":
            os._exit(1)

    monkeypatch.setattr(worker_mod, "_FAULT_INJECTOR", injector)
    config = ServiceConfig(
        num_shards=1, worker_mode="process", max_attempts=2, retry_backoff=0.01
    )
    with ServiceClient(config) as client:
        result = client.run_job(KernelJob("vecadd", size=64, label="always-dies"))
        stats = client.stats()
    assert not result.ok
    assert result.error_type == "WorkerCrash"
    assert result.attempts == 2
    assert stats["worker_crashes"] == 2
    # An errored result must never enter the cache.
    assert stats["cache"]["stores"] == 0


def test_per_job_timeout_kills_the_worker_and_reports_timeout():
    config = ServiceConfig(
        num_shards=1, worker_mode="process", job_timeout=0.1, max_attempts=1
    )
    with ServiceClient(config) as client:
        (pid,) = client.worker_pids()
        # size=256 sgemm simulates for multiple seconds — far past the budget.
        result = client.run_job(KernelJob("sgemm", size=256))
        stats = client.stats()
        (new_pid,) = client.worker_pids()
    assert result.error_type == "JobTimeout"
    assert not result.ok
    assert stats["timeouts"] == 1
    assert stats["respawns"] == 1
    assert new_pid != pid  # the stuck worker was killed and replaced


def test_process_worker_repeat_job_round_trip():
    """A process worker serves a repeat job bit-identically to the first."""
    worker = worker_mod.create_worker("process")
    if isinstance(worker, InlineWorker):
        pytest.skip("platform cannot create worker processes")
    try:
        job = KernelJob("vecadd", size=64)
        first = worker.request(job, timeout=120.0)
        second = worker.request(job, timeout=120.0)
        assert first.ok and second.ok
        # Two genuine executions: identical in every simulated quantity
        # (host wall-clock legitimately differs run to run).
        cold, warm = first.report.to_payload(), second.report.to_payload()
        cold.pop("wall_seconds")
        warm.pop("wall_seconds")
        assert cold == warm
        assert worker.jobs_served == 2
    finally:
        worker.stop()


# -- Session integration -----------------------------------------------------------------


def test_session_service_backend_serves_batches():
    with Session(executor="service", service_config=INLINE) as session:
        session.submit(KernelJob("vecadd", size=64))
        session.submit(KernelJob("vecadd", size=64, label="dup"))
        first = session.run_batch()
        second = session.run_batch([KernelJob("vecadd", size=64)])
    assert first.ok and first.executor == "service"
    assert first.cache_hits == 1  # the inflight-deduped duplicate
    assert second.results[0].cached
    payload = first.to_payload()
    assert payload["cache_hits"] == 1
    assert payload["results"][0]["report"]["cycles"] > 0


def test_session_shares_an_external_service_client():
    with ServiceClient(INLINE) as client:
        with Session(executor="service", service=client) as one:
            one.run_batch([KernelJob("vecadd", size=64)])
        # Closing the session must not close the shared client...
        with Session(executor="service", service=client) as two:
            batch = two.run_batch([KernelJob("vecadd", size=64)])
    # ...so the second session is served from the first session's cache.
    assert batch.results[0].cached


def test_service_client_rejects_use_after_close():
    client = ServiceClient(INLINE)
    client.close()
    client.close()  # idempotent
    with pytest.raises(RuntimeError):
        client.run_job(KernelJob("vecadd", size=64))
