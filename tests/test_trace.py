"""Tests for the tracing subsystem (``repro.trace``).

Four contracts are enforced here:

* **Spec plumbing** — the ``trace`` / ``trace_file`` / ``trace_channels``
  driver-spec options build the right sinks, validate loudly, and filter
  channels.
* **Determinism matrix** — the expanded event stream is bit-identical
  across the vector and scalar engines on three kernels, and equal to the
  stream of a cycle-by-cycle ``tick()`` loop: ``run()`` additionally carries
  synthesized ``core/skip`` markers that expand away.
* **Reconciliation** — a full unfiltered trace reproduces every aggregate
  performance counter bit-exactly (:func:`repro.trace.attribution.reconcile`),
  including on a multi-core barrier workload.
* **Sink round-trips** — CSV and JSONL are lossless encodings of any event
  stream (Hypothesis), and VCD re-parses to its own change list.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig, MemoryConfig, VortexConfig
from repro.core.processor import TimingProcessor
from repro.isa.builder import ProgramBuilder
from repro.isa.csr import CSR
from repro.isa.registers import Reg
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice
from repro.trace import __main__ as trace_cli
from repro.trace.attribution import attribute_stalls, reconcile, summarize
from repro.trace.bus import TraceBus
from repro.trace.events import CHANNELS, NO_WARP, TraceEvent, expand_skips
from repro.trace.sinks import (
    CsvSink,
    JsonlSink,
    MemorySink,
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
        for engine in ("vector", "scalar"):
            driver, events = _traced_run(kernel, size, f"simx:trace=mem,engine={engine}")
            # Full unfiltered trace reconciles against the live counters.
            assert reconcile(events, driver.processor) == []
            streams[engine] = expand_skips(events)
        assert streams["vector"]
        assert streams["scalar"] == streams["vector"]

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
            assert breakdown["cycles"] == core.perf.get("cycles")
            parts = (
                breakdown["issues"]
                + breakdown["idle"]
                + breakdown["masked"]
                + sum(breakdown["stalls"].values())
            )
            assert parts == breakdown["cycles"]


def _local_barrier_program():
    """Spawn every wavefront, rendezvous all of them at core-local barrier 0."""
    asm = ProgramBuilder(base=0x8000_0000)
    asm.csr_read(Reg.t0, CSR.NUM_WARPS)
    asm.la(Reg.t1, "worker")
    asm.wspawn(Reg.t0, Reg.t1)
    asm.j("worker")
    asm.label("worker")
    asm.li(Reg.t5, 0)
    asm.csr_read(Reg.t6, CSR.NUM_WARPS)
    asm.bar(Reg.t5, Reg.t6)
    asm.li(Reg.t6, 0)
    asm.tmc(Reg.t6)
    return asm.assemble()


class TestBarrierTracing:
    def test_barrier_workload_traces_and_reconciles(self):
        sink = MemorySink()
        config = VortexConfig(memory=MemoryConfig(latency=20, bandwidth=1))
        processor = TimingProcessor(config, trace=TraceBus([sink]))
        program = _local_barrier_program()
        processor.memory.load_words(program.base, program.words)
        processor.run(program.entry)
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
        for event in events:
            sink.write(event)
        sink.close()
        assert parse_csv(buffer.getvalue()) == events

    @settings(max_examples=50, deadline=None)
    @given(events=_events)
    def test_jsonl_round_trip_is_lossless(self, events):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        for event in events:
            sink.write(event)
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
        for event in mutated:
            sink.write(event)
        sink.close()
        assert trace_cli.main(["diff", str(traced_csv), str(other)]) == 1
        assert "traces differ" in capsys.readouterr().out

    def test_non_warp_constant_round_trips(self):
        event = TraceEvent(0, -1, NO_WARP, "dram", "response", {"address": 64})
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        sink.write(event)
        sink.close()
        assert parse_jsonl(buffer.getvalue()) == [event]
