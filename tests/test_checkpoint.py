"""Checkpoint/restore across the simulator layer stack.

The acceptance property for the whole subsystem: a run that pauses,
checkpoints, restores (into the same or a *fresh* device, optionally
through a pickle round-trip) and continues is **bit-identical** — same
cycles, same instruction counts, same value in every performance counter —
to a run that never paused.  These tests drive that property through the
envelope layer, both drivers, the device facade, the job restart path
and the service worker, plus the typed error paths for format/kind/config
mismatches and malformed envelopes.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.emulator import SimulationLimitExceeded
from repro.common.config import (
    SCHEDULER_POLICIES,
    CacheConfig,
    CoreConfig,
    MemoryConfig,
    VortexConfig,
)
from repro.runtime import jobs as jobs_mod
from repro.runtime.jobs import KernelJob, diff_execution_reports, execute_job
from repro.runtime.checkpoint import (
    SNAPSHOT_FORMAT,
    SnapshotConfigMismatch,
    SnapshotKindError,
    SnapshotMalformedError,
    SnapshotVersionError,
    Snapshotable,
    make_envelope,
    open_envelope,
)
from repro.runtime.device import VortexDevice
from repro.runtime.launch import LaunchOptions
from repro.service import ServiceClient, ServiceConfig
from repro.service.worker import InlineWorker

CFG = VortexConfig(num_cores=1, core=CoreConfig(num_warps=2, num_threads=4))
#: A one-worker in-process fleet: a batch run serially.
SERIAL = ServiceConfig(num_shards=1, worker_mode="inline")

#: Stores queued on both cores against a full DRAM queue behind a shared L2.
STORE_STORM_L2 = replace(
    VortexConfig(num_cores=2).with_cache_hierarchy(enable_l2=True),
    memory=MemoryConfig(latency=60, bandwidth=1, request_queue_size=2),
)


def reports_identical(a, b) -> bool:
    return (
        a.cycles == b.cycles
        and a.instructions == b.instructions
        and a.thread_instructions == b.thread_instructions
        and a.counters == b.counters
    )


# ---------------------------------------------------------------------------
# Envelope layer


class TestEnvelope:
    def test_roundtrip(self):
        envelope = make_envelope(kind="simx", config=CFG, state={"x": 1})
        assert envelope["format"] == SNAPSHOT_FORMAT
        assert open_envelope(envelope, kind="simx", config=CFG) == {"x": 1}

    def test_version_mismatch_raises(self):
        envelope = make_envelope(kind="simx", config=CFG, state={})
        # A newer build's format, format 3 (funcsim launch marks in the
        # driver) and format 2 (per-component clocks), which this build
        # replaced without a compatibility shim.
        for version in (SNAPSHOT_FORMAT + 1, 3, 2):
            envelope["format"] = version
            with pytest.raises(SnapshotVersionError, match=f"format {version} is not"):
                open_envelope(envelope, kind="simx", config=CFG)

    def test_kind_mismatch_raises(self):
        envelope = make_envelope(kind="funcsim", config=CFG, state={})
        with pytest.raises(SnapshotKindError):
            open_envelope(envelope, kind="simx", config=CFG)

    def test_config_fingerprint_mismatch_raises(self):
        envelope = make_envelope(kind="simx", config=CFG, state={})
        other = VortexConfig(num_cores=2)
        with pytest.raises(SnapshotConfigMismatch):
            open_envelope(envelope, kind="simx", config=other)

    def test_envelope_is_picklable(self):
        envelope = make_envelope(kind="device", config=CFG, state={"n": [1, 2]})
        assert pickle.loads(pickle.dumps(envelope)) == envelope

    def test_drivers_implement_snapshotable(self):
        device = VortexDevice(CFG, driver="simx")
        assert isinstance(device.driver.processor, Snapshotable)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda envelope: envelope.pop("state"),
            lambda envelope: envelope.update(state=None),
            lambda envelope: envelope["state"].pop("driver"),
            lambda envelope: envelope["state"].pop("allocator"),
            lambda envelope: envelope["state"]["driver"]["state"].pop("processor"),
        ],
        ids=["no-state", "state-none", "no-driver", "no-allocator", "no-processor"],
    )
    @pytest.mark.parametrize("driver", ["simx", "funcsim"])
    def test_malformed_checkpoint_is_rejected_before_any_restore(self, driver, corrupt):
        device, _, program, _ = _staged_device(driver)
        device.launch_chunk(150, program.entry)
        before = device.checkpoint()
        envelope = pickle.loads(pickle.dumps(before))
        corrupt(envelope)
        with pytest.raises(SnapshotMalformedError):
            device.restore(envelope)
        assert device.checkpoint() == before

    def test_non_dict_envelope_is_rejected(self):
        device = VortexDevice(CFG, driver="simx")
        for envelope in (None, [], "checkpoint"):
            with pytest.raises(SnapshotMalformedError):
                device.restore(envelope)


# ---------------------------------------------------------------------------
# Driver-level pause/restore identity


def _staged_device(driver: str, kernel: str = "vecadd", size: int = 64, config=CFG):
    from repro.kernels import KERNELS

    kernel_obj = KERNELS[kernel]()
    device = VortexDevice(config, driver=driver)
    program = kernel_obj.build_program()
    device.upload_program(program)
    context = kernel_obj.setup(device, size)
    return device, kernel_obj, program, context


class TestDriverCheckpoint:
    @pytest.mark.parametrize("driver", ["simx", "funcsim"])
    def test_restore_then_run_counter_identical(self, driver):
        straight, _, program, _ = _staged_device(driver)
        reference = straight.driver.run(program.entry)

        paused, kernel_obj, program, _ = _staged_device(driver)
        if driver == "simx":
            paused.driver.run(program.entry, pause_at=300)
        else:
            paused.driver.run(program.entry, pause_at=150)
        assert not paused.driver.done
        envelope = pickle.loads(pickle.dumps(paused.checkpoint()))

        fresh = VortexDevice(CFG, driver=driver)
        fresh.restore(envelope)
        report = fresh.driver.run(None, resume=True)
        assert fresh.driver.done
        assert reports_identical(reference, report)

    @pytest.mark.parametrize(
        "driver,pause",
        [("funcsim", {"pause_at": 500}), ("simx", {"pause_at": 900})],
    )
    def test_restored_run_ends_in_the_straight_runs_state(self, driver, pause):
        """Not just the counters: the whole processor state.  A restored
        device decodes every PC again, and decoding is not a data read, so
        ``memory.reads`` agrees too."""
        straight, _, program, _ = _staged_device(driver, kernel="sgemm", size=64)
        straight.driver.run(program.entry)

        paused, _, program, _ = _staged_device(driver, kernel="sgemm", size=64)
        paused.driver.run(program.entry, **pause)
        assert not paused.driver.done
        fresh = VortexDevice(CFG, driver=driver)
        fresh.restore(pickle.loads(pickle.dumps(paused.checkpoint())))
        fresh.driver.run(None, resume=True)
        assert fresh.driver.processor.snapshot() == straight.driver.processor.snapshot()

    @pytest.mark.parametrize("driver", ["simx", "funcsim"])
    def test_snapshot_mutate_restore_rewinds(self, driver):
        device, _, program, _ = _staged_device(driver)
        envelope = device.checkpoint()
        # Mutate: run the kernel to completion, dirtying every layer.
        device.driver.run(program.entry)
        device.restore(envelope)
        assert device.checkpoint() == envelope

    def test_checkpoint_chunking_is_invisible(self):
        straight, _, program, _ = _staged_device("simx", kernel="sgemm", size=8)
        reference = straight.driver.run(program.entry)

        chunked, _, program, _ = _staged_device("simx", kernel="sgemm", size=8)
        envelopes: list[dict] = []
        report = chunked.launch_resumable(
            program.entry, checkpoint_every=250, checkpoint_sink=envelopes.append
        )
        assert envelopes, "run finished before the first checkpoint"
        assert reports_identical(reference, report)

    def test_funcsim_chunked_instruction_totals_match(self):
        straight, _, program, _ = _staged_device("funcsim")
        reference = straight.driver.run(program.entry)

        chunked, _, program, _ = _staged_device("funcsim")
        report = chunked.launch_resumable(program.entry, checkpoint_every=100)
        assert report.instructions == reference.instructions

    @pytest.mark.parametrize("driver", ["simx", "funcsim"])
    def test_chunked_run_reports_the_sum_of_its_chunks_host_time(self, driver):
        straight, _, program, _ = _staged_device(driver, kernel="sgemm", size=8)
        reference = straight.driver.run(program.entry)

        chunked, _, program, _ = _staged_device(driver, kernel="sgemm", size=8)
        chunk_seconds: list[float] = []
        driver_run = chunked.driver.run

        def timed_run(*args, **kwargs):
            chunk = driver_run(*args, **kwargs)
            chunk_seconds.append(chunk.wall_seconds)
            return chunk

        chunked.driver.run = timed_run
        envelopes: list[dict] = []
        report = chunked.launch_resumable(
            program.entry, checkpoint_every=60, checkpoint_sink=envelopes.append
        )
        assert len(chunk_seconds) == len(envelopes) + 1 >= 3
        assert report.wall_seconds == pytest.approx(sum(chunk_seconds))
        assert report.wall_seconds > max(chunk_seconds)
        for field in fields(report):
            if field.name != "wall_seconds":
                assert getattr(report, field.name) == getattr(reference, field.name)


class TestRequestWireFormat:
    """Outstanding data requests travel through the core as same-line *runs*
    but are checkpointed one ``[address, line, bank, to_smem]`` per lane —
    the layout checkpoints were written in before runs existed, so
    ``SNAPSHOT_FORMAT`` did not move and those checkpoints stay loadable.  The
    partition into runs is not state: restore regroups adjacent same-line
    lanes, whichever instruction they came from."""

    CONFIG = VortexConfig(
        num_cores=1,
        core=CoreConfig(num_warps=8, num_threads=4),
        dcache=CacheConfig(size=4 * 1024, num_banks=2, num_ports=1, mshr_size=4),
        memory=MemoryConfig(latency=100, bandwidth=1, request_queue_size=2),
    )

    def _staged(self):
        from repro.kernels import KERNELS

        kernel = KERNELS["saxpy"]()
        device = VortexDevice(self.CONFIG, driver="simx")
        program = kernel.build_program()
        device.upload_program(program)
        kernel.setup(device, 64)
        return device, program

    def test_perlane_payload_restores_regroups_and_continues(self):
        straight, program = self._staged()
        reference = straight.driver.run(program.entry)

        # Pause where a load is half sent and the store queue holds lanes of
        # one line that came from two instructions (4-lane warps, 16-lane lines).
        paused, program = self._staged()
        processor = paused.driver.processor
        core = processor.cores[0]
        processor.reset(program.entry)

        def interesting():
            half_sent = any(op.to_send and op.outstanding for op in core._pending_ops.values())
            queue = core._store_queue
            return half_sent and any(a[1] == b[1] for a, b in zip(queue, queue[1:]))

        with np.errstate(all="ignore"):
            while not interesting():
                assert not processor.done and processor.cycle < reference.cycles
                processor.tick()

        payload = core.snapshot()
        wire = payload["store_queue"] + [
            lane for op in payload["pending_ops"] for lane in op["to_send"]
        ]
        assert all(
            type(lane) is list and [type(field) for field in lane] == [int, int, int, bool]
            for lane in wire
        )
        assert [lane[0] for lane in payload["store_queue"]] == [
            address for run in core._store_queue for address in run[0]
        ]

        envelope = pickle.loads(pickle.dumps(paused.checkpoint()))
        assert envelope["format"] == SNAPSHOT_FORMAT
        fresh = VortexDevice(self.CONFIG, driver="simx")
        fresh.restore(envelope)
        restored = fresh.driver.processor.cores[0]
        assert restored.snapshot() == payload
        assert fresh.checkpoint() == envelope
        # Same lanes, coarser partition: the two instructions' lanes share a run.
        assert len(restored._store_queue) < len(core._store_queue)
        lines = [run[1] for run in restored._store_queue]
        assert all(a != b for a, b in zip(lines, lines[1:]))

        report = fresh.driver.run(None, resume=True)
        assert fresh.driver.done
        assert reports_identical(reference, report)


class TestResponseWireFormat:
    """Accepted lanes travel from bank to scoreboard as one record per
    accepted run, but a record is only a grouping of adjacent per-lane
    responses: checkpoints keep one ``(ready, lane, hit)`` / one MSHR
    ``waiting`` item per lane — the layout they had before records existed,
    so ``SNAPSHOT_FORMAT`` did not move — and restore may regroup."""

    #: The Figure 19 regime: 32-thread warps against 8 virtual ports.
    CONFIG = VortexConfig(
        num_cores=1,
        core=CoreConfig(num_warps=4, num_threads=32),
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=8),
        memory=MemoryConfig(latency=100, bandwidth=1),
    )

    def test_multi_lane_records_checkpoint_per_lane_and_resume(self):
        straight, _, program, _ = _staged_device("simx", "sgemm", 16 * 16, self.CONFIG)
        reference = straight.driver.run(program.entry)

        paused, _, program, _ = _staged_device("simx", "sgemm", 16 * 16, self.CONFIG)
        processor = paused.driver.processor
        dcache = processor.memsys.dcache(0)
        processor.reset(program.entry)

        def records():
            due = [record for bucket in dcache._due.values() for _bank, record in bucket]
            parked = [
                record
                for bank in dcache.banks
                for entry in bank.mshr._entries.values()
                for record in entry.waiting
            ]
            return due, parked

        with np.errstate(all="ignore"):
            while not all(
                any(len(record.addresses) > 1 for record in group) for group in records()
            ):
                assert not processor.done and processor.cycle < reference.cycles
                processor.tick()

        due, parked = records()
        banks = dcache.snapshot(processor.memsys._encode_tag)["banks"]
        pending = [lane for bank in banks for lane in bank["pending"]]
        waiting = [
            lane for bank in banks for _line, entry in bank["mshr"]["entries"]
            for lane in entry["waiting"]
        ]
        assert len(pending) == sum(len(record.addresses) for record in due) > len(due)
        assert len(waiting) == sum(len(record.addresses) for record in parked) > len(parked)
        for ready, lane, hit in pending:
            assert (type(ready), type(hit)) == (int, bool) and ready > dcache.clock.now
            assert sorted(lane) == ["accept_cycle", "address", "is_write", "tag"]
        assert all(sorted(lane) == sorted(pending[0][1]) for lane in waiting)

        envelope = pickle.loads(pickle.dumps(paused.checkpoint()))
        assert envelope["format"] == SNAPSHOT_FORMAT
        fresh = VortexDevice(self.CONFIG, driver="simx")
        fresh.restore(envelope)
        assert fresh.checkpoint() == envelope
        restored = fresh.driver.processor.memsys.dcache(0)
        assert sum(len(bucket) for bucket in restored._due.values()) == len(pending)

        report = fresh.driver.run(None, resume=True)
        assert fresh.driver.done
        assert reports_identical(reference, report)

    def test_already_due_wire_entry_is_delivered_on_the_next_tick(self, tick):
        """``ready == cycle`` is what a ``hit_latency=0`` cache wrote into its
        checkpoints: the old per-bank ``ready <= cycle`` scan delivered it on
        the next tick, and so must the bucket keyed by exact cycle."""
        from repro.cache.cache import NonBlockingCache

        cache = NonBlockingCache("dcache", CacheConfig(num_banks=2, hit_latency=0))
        for _ in range(7):
            tick(cache)
        payload = cache.snapshot(lambda tag: tag)
        lane = {"address": 0x40, "is_write": False, "tag": "t", "accept_cycle": 7}
        payload["banks"][1]["pending"] = [(7, lane, True)]
        cache.restore(payload, lambda tag: tag)
        assert cache.busy and cache.next_response_cycle() == 8
        (response,) = tick(cache)
        assert (response.addresses, response.tag, response.hit) == ((0x40,), "t", True)
        assert (response.accept_cycle, response.cycle) == (7, 8)
        assert not cache.busy


# ---------------------------------------------------------------------------
# Hypothesis: the pause point never matters


class TestPausePointProperty:
    @given(stop=st.integers(min_value=1, max_value=1600))
    @settings(max_examples=10, deadline=None)
    def test_simx_any_pause_cycle_is_invisible(self, stop):
        straight, _, program, _ = _staged_device("simx")
        reference = straight.driver.run(program.entry)

        paused, _, program, _ = _staged_device("simx")
        paused.driver.run(program.entry, pause_at=stop)
        envelope = pickle.loads(pickle.dumps(paused.checkpoint()))
        fresh = VortexDevice(CFG, driver="simx")
        fresh.restore(envelope)
        report = fresh.driver.run(None, resume=True)
        assert reports_identical(reference, report)

    def test_pause_inside_a_store_storm_behind_l2_is_invisible(self):
        """Pause where the kept (not serialized) state matters most: stores
        queued on both cores against a full DRAM queue behind a shared L2."""
        config = replace(
            VortexConfig(num_cores=2).with_cache_hierarchy(enable_l2=True),
            memory=MemoryConfig(latency=60, bandwidth=1, request_queue_size=2),
        )
        straight, _, program, _ = _staged_device("simx", "saxpy", 32, config)
        reference = straight.driver.run(program.entry)

        paused, _, program, _ = _staged_device("simx", "saxpy", 32, config)
        processor = paused.driver.processor
        paused.driver.run(program.entry, pause_at=1)
        while not (
            all(core._store_queue for core in processor.cores)
            and not processor.memsys.dram.can_accept
        ):
            paused.driver.run(None, pause_at=processor.cycle + 1, resume=True)
        assert not paused.driver.done
        envelope = pickle.loads(pickle.dumps(paused.checkpoint()))
        fresh = VortexDevice(config, driver="simx")
        fresh.restore(envelope)
        assert fresh.checkpoint() == envelope
        assert reports_identical(reference, fresh.driver.run(None, resume=True))

    def test_a_pause_point_checkpoints_alike_in_one_chunk_or_two(self):
        """The retry-wall saxpy reaches these cycles by fast-forward.  Every
        skipped tick frees the bank ports, so whether the last tick before a
        pause point came in this chunk or the last, the port maps agree."""
        config = VortexConfig(
            dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
            memory=MemoryConfig(latency=800, bandwidth=4),
        ).with_warps_threads(8, 32)
        for stop in range(337, 1300, 137):
            straight, _, program, _ = _staged_device("simx", "saxpy", 512, config)
            straight.launch_chunk(stop, program.entry)
            chunked, _, program, _ = _staged_device("simx", "saxpy", 512, config)
            chunked.launch_chunk(200, program.entry)
            chunked.launch_chunk(stop - 200, resume=True)
            snapshots = [device.driver.processor.snapshot() for device in (straight, chunked)]
            assert pickle.dumps(snapshots[0]) == pickle.dumps(snapshots[1]), stop

    @given(stop=st.integers(min_value=1, max_value=400))
    @settings(max_examples=10, deadline=None)
    def test_funcsim_any_pause_round_is_invisible(self, stop):
        straight, _, program, _ = _staged_device("funcsim")
        reference = straight.driver.run(program.entry)

        paused, _, program, _ = _staged_device("funcsim")
        paused.driver.run(program.entry, pause_at=stop)
        envelope = pickle.loads(pickle.dumps(paused.checkpoint()))
        fresh = VortexDevice(CFG, driver="funcsim")
        fresh.restore(envelope)
        report = fresh.driver.run(None, resume=True)
        assert reports_identical(reference, report)


# ---------------------------------------------------------------------------
# Budgets and pause points count from the launch start


@pytest.mark.parametrize("driver", ["funcsim", "simx"])
def test_a_budget_raises_at_one_retired_count_however_the_launch_runs(driver):
    """vecadd 256 at 4W-4T retires 1,637 warp instructions.  A smaller
    budget raises at the same retired count whether the launch runs
    straight or in checkpointed chunks, and a restart leg raises what the
    straight job does — the budget counts from the launch start, not from
    the last resume."""
    config = VortexConfig().with_warps_threads(4, 4)
    options = LaunchOptions(max_instructions=818)
    retired = []
    for launch in (
        lambda device: device.launch(options=options),
        lambda device: device.launch_resumable(options=options, checkpoint_every=50),
    ):
        device, *_ = _staged_device(driver, "vecadd", 256, config)
        with pytest.raises(SimulationLimitExceeded) as raised:
            launch(device)
        assert (raised.value.kind, raised.value.limit) == ("instructions", 818)
        retired.append(device.driver.processor.counters()["core0"]["instructions"])
    assert retired[0] == retired[1] >= 818

    job = KernelJob(
        kernel="vecadd", config=config, driver=driver, size=256,
        options=LaunchOptions(max_instructions=1_400),
    )
    straight = execute_job(job)
    restarted = execute_job(replace(job, restart_midpoint=True))
    assert straight.error_type == restarted.error_type == "SimulationLimitExceeded"
    assert restarted.error == straight.error


@pytest.mark.parametrize("driver", ["funcsim", "simx"])
def test_a_chunk_of_no_units_is_refused(driver):
    device, _, program, _ = _staged_device(driver)
    for units in (0, -1):
        with pytest.raises(ValueError, match="units must be at least 1"):
            device.launch_chunk(units, program.entry)
        with pytest.raises(ValueError, match="units must be at least 1"):
            device.launch_resumable(program.entry, checkpoint_every=units)
    assert device.driver.processor.total_instructions == 0


# ---------------------------------------------------------------------------
# Every scheduler policy's selection state survives a checkpoint


@pytest.mark.parametrize("policy", sorted(SCHEDULER_POLICIES))
@pytest.mark.parametrize(
    "kernel,size,config",
    [
        pytest.param("sgemm", 8 * 8, VortexConfig().with_warps_threads(8, 4), id="sgemm-8w4t"),
        pytest.param("saxpy", 32, STORE_STORM_L2, id="store-storm-l2"),
    ],
)
def test_scheduler_policy_state_survives_a_checkpoint(kernel, size, config, policy):
    """A policy's private state (issue stamps, locality and hazard hints) is
    in the payload: a restored device checkpoints to the same envelope and
    its restart leg reports what the straight run does, counter by counter."""
    config = config.with_scheduler_policy(policy)
    straight, _, program, _ = _staged_device("simx", kernel, size, config)
    reference = straight.driver.run(program.entry)

    paused, _, program, _ = _staged_device("simx", kernel, size, config)
    paused.driver.run(program.entry, pause_at=reference.cycles // 2)
    envelope = pickle.loads(pickle.dumps(paused.checkpoint()))
    fresh = VortexDevice(config, driver="simx")
    fresh.restore(envelope)
    assert fresh.checkpoint() == envelope
    restarted = fresh.driver.run(None, resume=True)
    assert diff_execution_reports(reference, restarted) == []


# ---------------------------------------------------------------------------
# Jobs and batches


class TestSessionCheckpoint:
    def test_restart_midpoint_job_matches_straight_run(self):
        job = KernelJob(kernel="sgemm", config=CFG, driver="simx", size=8)
        straight = execute_job(job)
        restarted = execute_job(replace(job, restart_midpoint=True))
        assert straight.ok and restarted.ok
        assert reports_identical(straight.report, restarted.report)

    def test_session_run_resume_from_checkpoint(self):
        job = KernelJob(kernel="sgemm", config=CFG, driver="simx", size=8)
        envelopes: list[dict] = []
        chunked = execute_job(job, checkpoint_every=300, checkpoint_sink=envelopes.append)
        straight = execute_job(job)
        assert chunked.ok and straight.ok
        assert reports_identical(chunked.report, straight.report)
        resumed = execute_job(
            job,
            checkpoint_every=300,
            resume_from=pickle.loads(pickle.dumps(envelopes[0])),
        )
        assert resumed.ok
        assert reports_identical(resumed.report, straight.report)

    def test_differential_checkpoint_legs_identical(self):
        """Oracle, straight-through and checkpoint/restore legs of one point."""
        job = KernelJob(kernel="vecadd", config=CFG, driver="simx", size=64)
        with ServiceClient(SERIAL) as client:
            batch = client.run_batch(
                [replace(job, driver="simxref"), job, replace(job, restart_midpoint=True)]
            )
        assert batch.ok
        reference, straight, restored = (result.report for result in batch.results)
        assert diff_execution_reports(reference, straight) == []
        assert diff_execution_reports(straight, restored) == []

    def test_restart_midpoint_changes_cache_key(self):
        job = KernelJob(kernel="vecadd", config=CFG, driver="simx", size=64)
        restart = KernelJob(
            kernel="vecadd", config=CFG, driver="simx", size=64, restart_midpoint=True
        )
        assert job.cache_key() != restart.cache_key()


# ---------------------------------------------------------------------------
# One execute_job: composing keywords, one kernel memo, fresh device per job


class TestExecuteJob:
    def test_restart_midpoint_composes_with_chunking_and_resume(self):
        """``restart_midpoint`` is never dropped: the leg runs (its device hop
        happens before the first chunk checkpoint) and the result is identical."""
        job = KernelJob(kernel="sgemm", config=CFG, driver="simx", size=8)
        restart = replace(job, restart_midpoint=True)
        straight = execute_job(job)
        envelopes: list[dict] = []
        chunked = execute_job(restart, checkpoint_every=300, checkpoint_sink=envelopes.append)
        assert chunked.ok and reports_identical(chunked.report, straight.report)
        # The restart leg ran first: the chunked finish started from the
        # midpoint on the second device, not from cycle 0.
        processor = envelopes[0]["state"]["driver"]["state"]["processor"]
        first_cycle = processor["now"] - processor["launch_start"]
        assert first_cycle == jobs_mod.RESTART_MIDPOINT_UNITS + 300
        resumed = execute_job(restart, resume_from=pickle.loads(pickle.dumps(envelopes[0])))
        assert resumed.ok and reports_identical(resumed.report, straight.report)

    def test_cache_key_and_execute_share_one_assembled_program(self, monkeypatch):
        from repro.kernels import base as kernel_base

        assembled: list[tuple] = []
        build = kernel_base.build_kernel_program

        def counting_build(*args, **kwargs):
            assembled.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(kernel_base, "build_kernel_program", counting_build)
        jobs_mod._kernel.cache_clear()
        job = KernelJob(kernel="sgemm", config=CFG, driver="simx", size=8)
        job.cache_key()
        assert execute_job(job).ok
        assert execute_job(replace(job, restart_midpoint=True)).ok
        info = jobs_mod._kernel.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 2
        assert len(assembled) == 1

    def test_thread_pool_sharing_the_memo_matches_serial(self):
        jobs = [
            KernelJob(kernel=kernel, config=CFG, driver=driver, size=64)
            for kernel in ("vecadd", "saxpy", "sgemm")
            for driver in ("simx", "funcsim")
        ] * 2
        jobs_mod._kernel.cache_clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(execute_job, jobs))
        serial = [execute_job(job) for job in jobs]
        for a, b in zip(threaded, serial):
            assert a.ok and b.ok
            assert reports_identical(a.report, b.report)

    def test_inline_worker_never_reuses_a_dirty_device(self):
        """One worker serving different jobs, then a repeat at the same
        (config, driver) point, reports what a fresh ``execute_job`` does."""
        worker = InlineWorker()
        vecadd = KernelJob(kernel="vecadd", config=CFG, driver="simx", size=64)
        sgemm = KernelJob(kernel="sgemm", config=CFG, driver="simx", size=8)
        for job in (vecadd, sgemm, vecadd):
            served = worker.request(job, timeout=None)
            reference = execute_job(job)
            assert served.ok and reference.ok
            assert reports_identical(served.report, reference.report)
        assert worker.jobs_served == 3
