"""``repro.trace`` — the simulator-wide observability subsystem.

A :class:`~repro.trace.bus.TraceBus` fans typed, versioned
:class:`~repro.trace.events.TraceEvent` records out to pluggable sinks
(VCD for waveform viewers, CSV/JSONL for analysis, an in-memory list for
tests).  The timing stack emits on it when a driver is built with the
``trace=`` spec option (``"simx:trace=vcd,trace_file=run.vcd"``); with
tracing off every component holds ``trace = None`` and the hot path
stays allocation-free.

Analysis lives in :mod:`repro.trace.attribution` (stall attribution +
counter reconciliation) and the ``python -m repro.trace`` CLI
(summarize / convert / diff).
"""

from repro.trace.attribution import (
    attribute_stalls,
    collect_reconciliation_counters,
    observed_counters,
    reconcile,
    summarize,
)
from repro.trace.bus import TraceBus, TraceSink
from repro.trace.events import CHANNELS, NO_WARP, TRACE_VERSION, TraceEvent, expand_skips
from repro.trace.sinks import (
    CsvSink,
    JsonlSink,
    MemorySink,
    TraceFormatError,
    TraceHeaderError,
    TraceRecordError,
    TraceVersionError,
    VcdSink,
    encode_vcd,
    load_trace,
    parse_csv,
    parse_jsonl,
    parse_vcd,
    vcd_changes,
)

__all__ = [
    "TRACE_VERSION",
    "CHANNELS",
    "NO_WARP",
    "TraceEvent",
    "TraceBus",
    "TraceSink",
    "expand_skips",
    "MemorySink",
    "CsvSink",
    "JsonlSink",
    "VcdSink",
    "parse_csv",
    "parse_jsonl",
    "parse_vcd",
    "encode_vcd",
    "vcd_changes",
    "load_trace",
    "TraceFormatError",
    "TraceHeaderError",
    "TraceVersionError",
    "TraceRecordError",
    "summarize",
    "attribute_stalls",
    "observed_counters",
    "collect_reconciliation_counters",
    "reconcile",
]
