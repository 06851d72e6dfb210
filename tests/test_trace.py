"""Tests for the tracing subsystem (``repro.trace``).

Four contracts are enforced here:

* **Spec plumbing** — the ``trace`` / ``trace_file`` / ``trace_channels``
  driver-spec options build the right sinks, validate loudly, and filter
  channels.
* **Determinism matrix** — the expanded event stream is bit-identical
  to the per-thread oracle's (``simxref``) on three kernels, and equal to the
  stream of a cycle-by-cycle ``tick()`` loop: ``run()`` additionally carries
  synthesized ``core/skip`` markers that expand away.
* **Reconciliation** — a full unfiltered trace reproduces every aggregate
  performance counter bit-exactly (:func:`repro.trace.attribution.reconcile`),
  including on a multi-core barrier workload.
* **Sink round-trips** — CSV and JSONL are lossless encodings of any event
  stream (Hypothesis), and VCD re-parses to its own change list.
* **Batched encoding** — ``write_batch`` writes the bytes of the per-event
  encoders it replaced (kept below as oracles) for any split into batches, and
  a file is the same whatever ``TraceBus.FLUSH_EVENTS`` is.
* **Flush on every exit** — a run that pauses or raises leaves sinks complete.
* **Typed reader errors** — a damaged trace raises a ``TraceFormatError``
  that names the line.
"""

from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.core.emulator import SimulationStalled
from repro.core.processor import TimingProcessor
from repro.isa.builder import ProgramBuilder
from repro.isa.csr import CSR
from repro.isa.registers import Reg
from repro.kernels import KERNELS
from repro.runtime.device import KERNEL_ARG_PTR_ADDR, VortexDevice
from repro.trace import __main__ as trace_cli
from repro.trace.attribution import attribute_stalls, reconcile, summarize
from repro.trace.bus import TraceBus
from repro.trace.events import CHANNELS, NO_WARP, TRACE_VERSION, TraceEvent, expand_skips
from repro.trace.sinks import (
    CsvSink,
    JsonlSink,
    MemorySink,
    TraceFormatError,
    TraceHeaderError,
    TraceRecordError,
    TraceVersionError,
    encode_vcd,
    load_trace,
    parse_csv,
    parse_jsonl,
    parse_vcd,
    vcd_changes,
)


def _config(num_cores: int = 1) -> VortexConfig:
    """The differential-grid shape: banked dcache, visible memory latency."""
    return VortexConfig(
        num_cores=num_cores,
        dcache=CacheConfig(size=16 * 1024, num_banks=4, num_ports=1),
        memory=MemoryConfig(latency=100, bandwidth=1),
    ).with_warps_threads(4, 4)


def _traced_run(kernel: str, size: int, spec: str, config: VortexConfig | None = None):
    """Run a kernel under ``spec``; returns ``(driver, events)``.

    ``events`` is the collected stream for ``trace=mem`` runs and ``None``
    for file sinks (read those back through their parser).
    """
    device = VortexDevice(config or _config(), driver=spec)
    run = KERNELS[kernel]().run(device, size=size)
    assert run.passed
    collected = getattr(device.driver.trace_sink, "events", None)
    return device.driver, list(collected) if collected is not None else None


def test_dram_read_responses_carry_line_aligned_byte_addresses():
    """A fill reaches DRAM as the byte address of its line, the unit a
    write-through's address has: every read ``response`` of a traced vecadd
    64 is line-aligned and on a line of the program image, the kernel
    argument pointer or the allocated heap."""
    config = _config()
    device = VortexDevice(config, driver="simx:trace=mem")
    assert KERNELS["vecadd"]().run(device, size=64).passed
    program, heap = device.program, device.allocator
    allocated = [
        (program.base, program.base + program.size),
        (KERNEL_ARG_PTR_ADDR, KERNEL_ARG_PTR_ADDR + 4),
        (heap.base, heap.base + heap.used),
    ]
    line = config.dcache.line_size
    assert config.icache.line_size == line
    reads = [
        event.payload["address"]
        for event in device.driver.trace_sink.events
        if event.channel == "dram" and event.kind == "response" and not event.payload["write"]
    ]
    assert reads
    for address in reads:
        assert address % line == 0, hex(address)
        on_a_buffer = any(low < address + line and address < high for low, high in allocated)
        assert on_a_buffer, hex(address)


# ---------------------------------------------------------------------------
# Driver-spec plumbing


class TestTraceSpecOptions:
    def test_mem_mode_collects_events(self):
        driver, events = _traced_run("vecadd", 64, "simx:trace=mem")
        assert driver.trace_bus is not None
        assert driver.trace_bus.events_emitted == len(events)
        assert events and all(isinstance(e, TraceEvent) for e in events)
        assert {e.channel for e in events} <= set(CHANNELS)

    def test_file_modes_write_parseable_traces(self, tmp_path):
        for mode, parse in (("csv", parse_csv), ("jsonl", parse_jsonl)):
            path = tmp_path / f"trace.{mode}"
            driver, _ = _traced_run(
                "vecadd", 64, f"simx:trace={mode},trace_file={path}"
            )
            events = parse(path.read_text())
            assert len(events) == driver.trace_bus.events_emitted
            assert load_trace(path) == events

    def test_vcd_mode_writes_valid_vcd(self, tmp_path):
        path = tmp_path / "trace.vcd"
        _traced_run("vecadd", 64, f"simx:trace=vcd,trace_file={path}")
        text = path.read_text()
        assert "$enddefinitions" in text
        assert parse_vcd(text)

    def test_channel_filter_restricts_stream(self):
        _, events = _traced_run(
            "vecadd", 64, "simx:trace=mem,trace_channels=scheduler+dcache"
        )
        assert {e.channel for e in events} <= {"scheduler", "dcache"}
        assert {e.channel for e in events} == {"scheduler", "dcache"}

    def test_file_mode_requires_trace_file(self):
        with pytest.raises(ValueError, match="trace_file"):
            VortexDevice(_config(), driver="simx:trace=vcd")

    def test_mem_mode_rejects_trace_file(self):
        with pytest.raises(ValueError, match="drop trace_file"):
            VortexDevice(_config(), driver="simx:trace=mem,trace_file=x.csv")

    def test_trace_file_requires_a_mode(self):
        with pytest.raises(ValueError, match="require a trace= mode"):
            VortexDevice(_config(), driver="simx:trace_file=x.csv")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown trace mode"):
            VortexDevice(_config(), driver="simx:trace=waveform")

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown trace channel"):
            VortexDevice(_config(), driver="simx:trace=mem,trace_channels=sched")

    def test_tracing_off_attaches_nothing(self):
        device = VortexDevice(_config(), driver="simx")
        assert device.driver.trace_bus is None
        assert device.driver.trace_sink is None
        for core in device.driver.processor.cores:
            assert core.trace is None


# ---------------------------------------------------------------------------
# Determinism matrix + reconciliation

MATRIX_KERNELS = [("vecadd", 64), ("sgemm", 8 * 8), ("bfs", 32)]


class TestDeterminismMatrix:
    @pytest.mark.parametrize("kernel,size", MATRIX_KERNELS)
    def test_streams_identical_across_engines(self, kernel, size):
        streams = {}
        for simulator in ("simx", "simxref"):
            driver, events = _traced_run(kernel, size, f"{simulator}:trace=mem")
            # Full unfiltered trace reconciles against the live counters.
            assert reconcile(events, driver.processor) == []
            streams[simulator] = expand_skips(events)
        assert streams["simx"]
        assert streams["simxref"] == streams["simx"]

    @pytest.mark.parametrize("kernel,size", [*MATRIX_KERNELS, ("saxpy", 64)])
    def test_fastforward_emits_skip_markers_that_expand_away(self, run_ticked, kernel, size):
        ticked = run_ticked(kernel, size, _config(), "simx:trace=mem").driver.trace_sink.events
        _, jumped = _traced_run(kernel, size, "simx:trace=mem")
        skips = [e for e in jumped if e.channel == "core" and e.kind == "skip"]
        assert skips, "memory-bound run should fast-forward at least one window"
        assert all(e.payload["cycles"] > 0 for e in skips)
        assert not [e for e in ticked if e.kind == "skip"]
        # (expand_skips also applies the canonical per-cycle sort to both sides)
        assert expand_skips(jumped) == expand_skips(ticked)

    def test_scheduler_channel_partitions_cycles(self):
        driver, events = _traced_run("sgemm", 8 * 8, "simx:trace=mem")
        per_core = attribute_stalls(expand_skips(events))
        for core in driver.processor.cores:
            breakdown = per_core[core.core_id]
            assert breakdown["cycles"] == core.clock.now
            parts = (
                breakdown["issues"]
                + breakdown["idle"]
                + breakdown["masked"]
                + sum(breakdown["stalls"].values())
            )
            assert parts == breakdown["cycles"]


def _local_barrier_program(surplus: int = 0):
    """Spawn every wavefront, rendezvous all of them at core-local barrier 0.

    With ``surplus`` the barrier expects that many arrivals more than there
    are wavefronts, so nobody is ever released (the watchdog's test case).
    """
    asm = ProgramBuilder(base=0x8000_0000)
    asm.csr_read(Reg.t0, CSR.NUM_WARPS)
    asm.la(Reg.t1, "worker")
    asm.wspawn(Reg.t0, Reg.t1)
    asm.j("worker")
    asm.label("worker")
    asm.li(Reg.t5, 0)
    asm.csr_read(Reg.t6, CSR.NUM_WARPS)
    if surplus:
        asm.addi(Reg.t6, Reg.t6, surplus)
    asm.bar(Reg.t5, Reg.t6)
    asm.li(Reg.t6, 0)
    asm.tmc(Reg.t6)
    return asm.assemble()


class TestBarrierTracing:
    def test_barrier_workload_traces_and_reconciles(self):
        sink = MemorySink()
        config = VortexConfig(memory=MemoryConfig(latency=20, bandwidth=1))
        bus = TraceBus([sink])
        processor = TimingProcessor(config, trace=bus)
        program = _local_barrier_program()
        processor.memory.load_words(program.base, program.words)
        processor.run(program.entry)
        bus.flush()
        arrivals = [e for e in sink.events if e.channel == "barrier"]
        num_warps = config.core.num_warps
        assert len(arrivals) == num_warps
        assert {e.kind for e in arrivals} == {"arrive"}
        assert all(e.payload["expected"] == num_warps for e in arrivals)
        # The last arrival releases every waiter; earlier ones stall.
        released = [e for e in arrivals if e.payload["released"]]
        assert len(released) == 1
        assert released[0].payload["released"] == num_warps
        assert reconcile(list(sink.events), processor) == []


# ---------------------------------------------------------------------------
# Sink round-trips (Hypothesis)

_payload_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**32),
    st.booleans(),
    st.text(alphabet="abcdefxyz_", max_size=8),
)

_events = st.lists(
    st.builds(
        TraceEvent,
        cycle=st.integers(min_value=0, max_value=1_000_000),
        core=st.integers(min_value=-1, max_value=7),
        warp=st.integers(min_value=-1, max_value=15),
        channel=st.sampled_from(CHANNELS),
        kind=st.sampled_from(
            ("issue", "stall", "hit", "miss", "fill", "conflict", "response")
        ),
        payload=st.dictionaries(
            st.text(alphabet="abcdefgh_", min_size=1, max_size=8),
            _payload_values,
            max_size=3,
        ),
    ),
    max_size=40,
)


class TestSinkRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(events=_events)
    def test_csv_round_trip_is_lossless(self, events):
        buffer = io.StringIO()
        sink = CsvSink(buffer)
        sink.write_batch(events)
        sink.close()
        assert parse_csv(buffer.getvalue()) == events

    @settings(max_examples=50, deadline=None)
    @given(events=_events)
    def test_jsonl_round_trip_is_lossless(self, events):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.write_batch(events)
        sink.close()
        assert parse_jsonl(buffer.getvalue()) == events

    @settings(max_examples=50, deadline=None)
    @given(events=_events)
    def test_vcd_round_trip_preserves_change_list(self, events):
        # VCD is a lossy waveform projection; the invariant is that the
        # emitted file re-parses to exactly the change list it encodes.
        ordered = sorted(events, key=lambda e: e.cycle)
        assert parse_vcd(encode_vcd(ordered)) == vcd_changes(ordered)


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture(scope="module")
def traced_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "run.csv"
    _traced_run("vecadd", 64, f"simx:trace=csv,trace_file={path}")
    return path


class TestTraceCli:
    def test_summarize_reports_channels_and_attribution(self, traced_csv, capsys):
        assert trace_cli.main(["summarize", str(traced_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"] == len(load_trace(traced_csv))
        assert "scheduler" in payload["channels"]
        assert payload["attribution"]["core0"]["cycles"] > 0
        assert payload == {**payload, **summarize(load_trace(traced_csv))} | {
            "attribution": payload["attribution"]
        }

    def test_convert_csv_jsonl_vcd(self, traced_csv, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        assert trace_cli.main(["convert", str(traced_csv), str(jsonl), "--format", "jsonl"]) == 0
        assert load_trace(jsonl) == load_trace(traced_csv)
        vcd = tmp_path / "run.vcd"
        assert trace_cli.main(["convert", str(traced_csv), str(vcd), "--format", "vcd"]) == 0
        assert parse_vcd(vcd.read_text()) == vcd_changes(load_trace(traced_csv))

    def test_diff_detects_identity_and_divergence(self, traced_csv, tmp_path, capsys):
        assert trace_cli.main(["diff", str(traced_csv), str(traced_csv)]) == 0
        assert "traces match" in capsys.readouterr().out

        events = load_trace(traced_csv)
        mutated = list(events)
        mutated[0] = TraceEvent(
            cycle=events[0].cycle,
            core=events[0].core,
            warp=events[0].warp,
            channel=events[0].channel,
            kind="tampered",
            payload=events[0].payload,
        )
        other = tmp_path / "mutated.csv"
        sink = CsvSink(other)
        sink.write_batch(mutated)
        sink.close()
        assert trace_cli.main(["diff", str(traced_csv), str(other)]) == 1
        assert "traces differ" in capsys.readouterr().out

    def test_non_warp_constant_round_trips(self):
        event = TraceEvent(0, -1, NO_WARP, "dram", "response", {"address": 64})
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.write_batch([event])
        sink.close()
        assert parse_jsonl(buffer.getvalue()) == [event]


# ---------------------------------------------------------------------------
# Batched encoding against the per-event encoders it replaced


def _reference_jsonl(events) -> str:
    """``JsonlSink`` as it was: one ``json.dumps(record, sort_keys=True)`` per event."""
    out = [json.dumps({"format": "repro-trace", "version": TRACE_VERSION}, sort_keys=True) + "\n"]
    for cycle, core, warp, channel, kind, payload in events:
        record = {"cycle": cycle, "core": core, "warp": warp, "channel": channel, "kind": kind}
        if payload:
            record["payload"] = payload
        out.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(out)


def _reference_csv(events) -> str:
    """``CsvSink`` as it was: one ``writerow`` per event."""
    out = io.StringIO(newline="")
    out.write(f"# repro-trace v{TRACE_VERSION}\n")
    writer = csv.writer(out)
    writer.writerow(("cycle", "core", "warp", "channel", "kind", "payload"))
    for cycle, core, warp, channel, kind, payload in events:
        text = json.dumps(payload, sort_keys=True) if payload else ""
        writer.writerow((cycle, core, warp, channel, kind, text))
    return out.getvalue()


_nasty_text = st.text(alphabet='ab"\\\n%{}é\u4e2d\x00 ,', max_size=6)

_nasty_payloads = st.one_of(
    st.none(),
    st.dictionaries(
        st.one_of(st.sampled_from(["float", "x"]), _nasty_text),
        st.one_of(
            st.sampled_from([True, 1, 0, False]),
            st.integers(min_value=-(2**40), max_value=2**40),
            _nasty_text,
        ),
        max_size=3,
    ),
)


def _emissions_from(pool):
    """(cycle, core, warp, channel, kind, payload, count) emissions whose
    payloads are objects of ``pool``, so one object recurs at positions
    that are not next to each other."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=-1, max_value=7),
            st.integers(min_value=-1, max_value=15),
            st.one_of(st.sampled_from(CHANNELS), _nasty_text),
            st.one_of(st.sampled_from(("hit", "100%", "{kind}", "%s{0}")), _nasty_text),
            st.integers(min_value=0, max_value=len(pool) - 1).map(pool.__getitem__),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=12,
    )


_emissions = st.lists(_nasty_payloads, min_size=1, max_size=4).flatmap(_emissions_from)

#: Equal as dicts, distinct as objects and as JSON: a content memo mixes them up.
_ONE, _TRUE = {"float": 1}, {"float": True}


class TestBatchedEncoding:
    @settings(max_examples=150, deadline=None)
    @given(emissions=_emissions, cuts=st.lists(st.integers(min_value=0, max_value=36), max_size=4))
    @example(
        emissions=[
            (0, 0, 0, "core", "commit", {"float": True}, 1),
            (0, 0, 1, "core", "commit", {"float": 1}, 2),
            (0, 0, 2, "core", "commit", {"float": False}, 1),
            (0, 0, 3, "core", "commit", {"float": 0}, 1),
        ],
        cuts=[],
    )
    @example(
        emissions=[
            (0, 0, 0, "core", "commit", _ONE, 1),
            (0, 0, 1, "core", "commit", _TRUE, 1),
            (0, 0, 2, "core", "commit", _ONE, 1),
        ],
        cuts=[],
    )
    def test_batches_write_the_bytes_of_the_per_event_encoders(self, emissions, cuts):
        memory = MemorySink()
        bus = TraceBus([memory])  # no channel filter, so arbitrary channel names pass
        emitted = []
        for cycle, core, warp, channel, kind, payload, count in emissions:
            bus.emit(cycle, core, warp, channel, kind, payload, count=count)
            emitted += [(cycle, core, warp, channel, kind, payload or {})] * count
        assert bus.events_emitted == len(emitted)  # pending ones count
        bus.flush()
        events = memory.events
        assert events == emitted  # None and {} are the same event
        bounds = sorted({0, len(events), *(cut for cut in cuts if cut < len(events))})
        for sink_type, reference in ((JsonlSink, _reference_jsonl), (CsvSink, _reference_csv)):
            whole, split = io.StringIO(newline=""), io.StringIO(newline="")
            sink = sink_type(whole)
            sink.write_batch(events)
            sink.close()
            sink = sink_type(split)
            for start, stop in zip(bounds, bounds[1:]):
                sink.write_batch(events[start:stop])
            sink.close()
            assert whole.getvalue() == reference(events)
            assert split.getvalue() == whole.getvalue()

    @pytest.mark.parametrize(
        "kernel,size,config",
        [
            ("vecadd", 64, _config()),
            ("sgemm", 8 * 8, _config()),
            ("bfs", 32, _config()),
            ("sgemm", 8 * 8, VortexConfig(num_cores=2, enable_l2=True).with_warps_threads(4, 4)),
        ],
        ids=["vecadd", "sgemm", "bfs", "sgemm-2core-l2"],
    )
    def test_file_does_not_depend_on_the_flush_size(self, kernel, size, config, tmp_path, monkeypatch):
        """Flushing after every event encodes each payload as it was at
        ``emit``; a call site mutating one afterwards shows at 1,024."""
        files = {}
        for flush_events in (1, 1024):
            monkeypatch.setattr(TraceBus, "FLUSH_EVENTS", flush_events)
            for mode in ("jsonl", "csv"):
                path = tmp_path / f"{flush_events}.{mode}"
                _traced_run(kernel, size, f"simx:trace={mode},trace_file={path}", config)
                files[flush_events, mode] = path.read_bytes()
        assert files[1, "jsonl"] == files[1024, "jsonl"]
        assert files[1, "csv"] == files[1024, "csv"]
        assert parse_jsonl(files[1, "jsonl"].decode()) == parse_csv(files[1, "csv"].decode())


# ---------------------------------------------------------------------------
# Payload intern tables: bounded, and owned by one device


def _intern_tables(processor):
    """Every trace-payload intern table of a traced processor."""
    memsys = processor.memsys
    caches = [*memsys.icaches, *memsys.dcaches, *memsys.l2, memsys.l3]
    tables = [cache._payloads for cache in caches if cache is not None]
    for core in processor.cores:
        tables += [core._pc_payloads, core._register_payloads]
    return tables


class TestInternTables:
    def test_tables_stay_bounded(self):
        config = VortexConfig(
            dcache=CacheConfig(line_size=16, num_banks=8, num_ports=4),
            memory=MemoryConfig(latency=10, bandwidth=8),
        ).with_warps_threads(4, 16)
        driver, events = _traced_run("saxpy", 2304, "simx:trace=mem", config)
        lines = {event.payload["line"] for event in events if event.channel == "dcache"}
        assert len(lines) > TraceBus.FLUSH_EVENTS
        assert all(len(table) <= TraceBus.FLUSH_EVENTS for table in _intern_tables(driver.processor))

    def test_devices_share_no_payload_object(self):
        """Two traced devices share no payload object (the two stall reasons
        are module constants on purpose)."""
        streams = [_traced_run("sgemm", 8 * 8, "simx:trace=mem")[1] for _ in range(2)]
        first, second = (
            {id(event.payload) for event in events if event.kind != "stall"}
            for events in streams
        )
        assert first and not first & second


# ---------------------------------------------------------------------------
# Sinks are complete after any ``run()``: paused, or raising


class TestFlushOnEveryExit:
    def test_failing_run_keeps_its_last_events(self, tmp_path, monkeypatch):
        monkeypatch.setattr(TimingProcessor, "NO_PROGRESS_LIMIT", 300)
        path = tmp_path / "stalled.jsonl"
        streams = {}
        for spec in ("simx:trace=mem", f"simx:trace=jsonl,trace_file={path}"):
            device = VortexDevice(_config(), driver=spec)
            device.upload_program(_local_barrier_program(surplus=1))
            with pytest.raises(SimulationStalled) as excinfo:
                device.launch()
            streams[spec] = device.driver
        stalled = excinfo.value
        in_memory = streams["simx:trace=mem"].trace_sink.events
        on_disk = parse_jsonl(path.read_text())  # the sink is still open: flushed, not closed
        device.driver.trace_bus.close()
        assert on_disk == in_memory
        assert len(on_disk) == streams["simx:trace=mem"].trace_bus.events_emitted
        assert 0 < len(on_disk) % TraceBus.FLUSH_EVENTS, "the tail is what the flush must save"
        assert stalled.cycle - stalled.window <= on_disk[-1].cycle <= stalled.cycle
        assert [e.kind for e in on_disk if e.channel == "barrier"] == ["arrive"] * 4

    def test_paused_run_has_flushed_before_the_resume(self, tmp_path):
        path = tmp_path / "paused.jsonl"
        device = VortexDevice(_config(), driver=f"simx:trace=jsonl,trace_file={path}")
        kernel = KERNELS["vecadd"]()
        device.upload_program(kernel.build_program())
        context = kernel.setup(device, 64)
        device.launch_chunk(150)
        bus = device.driver.trace_bus
        assert not device.driver.done
        paused = parse_jsonl(path.read_text())
        assert 0 < len(paused) == bus.events_emitted < TraceBus.FLUSH_EVENTS
        assert max(event.cycle for event in paused) <= 150
        while not device.driver.done:
            device.launch_chunk(150, resume=True)
        assert kernel.verify(device, context)
        whole = parse_jsonl(path.read_text())
        assert whole[: len(paused)] == paused and len(whole) == bus.events_emitted
        _, straight = _traced_run("vecadd", 64, "simx:trace=mem")
        assert expand_skips(whole) == expand_skips(straight)


    @pytest.mark.parametrize("mode", ["jsonl", "csv", "vcd"])
    def test_file_traced_device_relaunches(self, mode, tmp_path):
        """The bus closes the file sinks when a launch drains; the next launch
        reopens them (JSONL/CSV append, VCD re-encoded whole), so the file
        holds both launches — what a ``trace=mem`` twin collects — and the
        first launch's bytes stay as a single-launch device writes them."""
        path = tmp_path / f"relaunch.{mode}"
        device = VortexDevice(_config(), driver=f"simx:trace={mode},trace_file={path}")
        twin = VortexDevice(_config(), driver="simx:trace=mem")
        for target in (device, twin):
            assert KERNELS["vecadd"]().run(target, size=64).passed
        first = path.read_bytes()
        single = tmp_path / f"single.{mode}"
        _traced_run("vecadd", 64, f"simx:trace={mode},trace_file={single}")
        assert first == single.read_bytes()
        for target in (device, twin):
            assert KERNELS["vecadd"]().run(target, size=64).passed
        events = twin.driver.trace_sink.events
        assert events[-1].cycle > twin.driver.processor.launch_start > 0
        text = path.read_text()
        if mode == "vcd":
            assert parse_vcd(text) == vcd_changes(events)
        else:
            assert path.read_bytes().startswith(first)
            assert load_trace(path) == events


# ---------------------------------------------------------------------------
# Typed reader errors


def _vecadd_trace(mode: str, tmp_path) -> str:
    path = tmp_path / f"good.{mode}"
    _traced_run("vecadd", 64, f"simx:trace={mode},trace_file={path}")
    return path.read_text()


class TestReaderErrors:
    def test_truncated_last_line(self, tmp_path):
        for mode, parse in (("jsonl", parse_jsonl), ("csv", parse_csv)):
            text = _vecadd_trace(mode, tmp_path)
            cut = text[: text.rstrip("\n").rindex("\n") + 20]  # the last record loses its tail
            last_line = cut.count("\n") + 1
            with pytest.raises(TraceRecordError) as excinfo:
                parse(cut)
            error = excinfo.value
            assert (error.source, error.line) == (mode, last_line)
            assert error.text == cut.splitlines()[-1] and f"{mode}:{last_line}:" in str(error)

    def test_version_skewed_header(self, tmp_path):
        skewed = {
            "jsonl": (parse_jsonl, '"version": 1', '"version": 2', 2),
            "csv": (parse_csv, "# repro-trace v1", "# repro-trace v2", "2"),
            "vcd": (parse_vcd, '"version": 1', '"version": 2', 2),
        }
        for mode, (parse, old, new, found) in skewed.items():
            text = _vecadd_trace(mode, tmp_path)
            assert old in text
            with pytest.raises(TraceVersionError, match="unsupported trace version 2") as excinfo:
                parse(text.replace(old, new, 1))
            error = excinfo.value
            assert (error.found, error.expected) == (found, TRACE_VERSION)
            assert error.line == (4 if mode == "vcd" else 1)

    def test_column_shuffled_csv(self, tmp_path):
        text = _vecadd_trace("csv", tmp_path)
        shuffled = text.replace("cycle,core,warp", "core,cycle,warp", 1)
        with pytest.raises(TraceHeaderError, match="csv:2: unexpected CSV columns") as excinfo:
            parse_csv(shuffled)
        assert excinfo.value.line == 2

    def test_csv_row_with_five_fields(self, tmp_path):
        lines = _vecadd_trace("csv", tmp_path).splitlines()
        lines[6] = lines[6].rsplit(",", 1)[0].replace('"', "")  # line 7 loses its payload column
        path = tmp_path / "five.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceRecordError) as excinfo:
            load_trace(path)
        error = excinfo.value
        assert (error.source, error.line, error.text) == (str(path), 7, lines[6])

    def test_jsonl_record_missing_kind(self, tmp_path):
        lines = _vecadd_trace("jsonl", tmp_path).splitlines()
        record = json.loads(lines[9])
        del record["kind"]
        lines[9] = json.dumps(record, sort_keys=True)
        with pytest.raises(TraceRecordError, match=r"jsonl:10: KeyError\('kind'\)") as excinfo:
            parse_jsonl("\n".join(lines))
        assert excinfo.value.text == lines[9]

    def test_vcd_with_a_cut_comment(self, tmp_path):
        text = _vecadd_trace("vcd", tmp_path)
        start = text.index("$comment ")
        with pytest.raises(TraceHeaderError, match="vcd:4: not a repro-trace VCD") as excinfo:
            parse_vcd(text[: start + 60])
        assert excinfo.value.text.startswith("$comment {")
        with pytest.raises(TraceRecordError, match="vcd:") as excinfo:
            parse_vcd(text + "b101 ~~~\n")  # a change on a wire the header never declared
        assert excinfo.value.line == text.count("\n") + 1

    def test_every_reader_error_is_still_a_value_error(self, tmp_path):
        garbage = tmp_path / "garbage.txt"
        garbage.write_text("not a trace\n")
        for broken in (
            lambda: parse_jsonl(""),
            lambda: parse_jsonl("[1, 2]\n"),
            lambda: parse_csv("cycle,core\n"),
            lambda: parse_vcd("$date today $end\n"),
            lambda: load_trace(garbage),
        ):
            with pytest.raises(ValueError) as excinfo:
                broken()
            assert isinstance(excinfo.value, TraceFormatError) and excinfo.value.line == 1
