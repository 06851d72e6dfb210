"""Trace sinks and their parsers: VCD, CSV, JSONL, in-memory.

Every textual format carries the trace format version in its header
(:data:`~repro.trace.events.TRACE_VERSION`) and has a matching parser so
the CLI and the round-trip property tests can read traces back:

* **CSV** (``parse_csv``) — one row per event, payload JSON-encoded with
  sorted keys; lossless.
* **JSONL** (``parse_jsonl``) — one object per line after a header
  record; lossless.
* **VCD** (``parse_vcd``) — value-change dump for waveform viewers: one
  32-bit wire per (core, channel) whose value encodes ``(kind, warp)``.
  VCD is *change-based*, so coincident same-wire events collapse to the
  last one per cycle; :func:`vcd_changes` is the pure reference for that
  lossy projection and the round-trip property is
  ``parse_vcd(encode(events)) == vcd_changes(events)``.

Sinks take the bus's records a batch at a time (``write_batch``); every parser
failure is a :class:`TraceFormatError` naming the source and the 1-based line.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from pathlib import Path
from typing import Any, TextIO

from repro.trace.events import TRACE_VERSION, TraceEvent, TraceRecord

# ---------------------------------------------------------------------------
# Reader errors


class TraceFormatError(ValueError):
    """A trace that cannot be read; names its source and 1-based line."""

    def __init__(self, source: str, line: int, message: str, text: str = ""):
        super().__init__(f"{source}:{line}: {message}")
        self.source, self.line, self.text = source, line, text

    def __reduce__(self):
        message = str(self)[len(f"{self.source}:{self.line}: ") :]
        return type(self), (self.source, self.line, message, self.text)


class TraceHeaderError(TraceFormatError):
    """The version header (or CSV column row, or VCD ``$comment``) is damaged."""


class TraceVersionError(TraceFormatError):
    """The header is intact but stamps another :data:`TRACE_VERSION`."""

    def __init__(self, source: str, line: int, found: Any):
        message = f"unsupported trace version {found} (expected {TRACE_VERSION})"
        super().__init__(source, line, message)
        self.found, self.expected = found, TRACE_VERSION

    def __reduce__(self):
        return type(self), (self.source, self.line, self.found)


class TraceRecordError(TraceFormatError):
    """One body record is damaged; ``text`` is the offending line."""


# ---------------------------------------------------------------------------
# In-memory


class MemorySink:
    """Keeps the records; ``events`` turns them into :class:`TraceEvent`s when read."""

    def __init__(self) -> None:
        self._events: list[Any] = []  # TraceEvents up to ``_made``, raw records after
        self._made = 0

    def write_batch(self, records: list[TraceRecord]) -> None:
        self._events.extend(records)

    @property
    def events(self) -> list[TraceEvent]:
        """Everything flushed so far (``bus.flush()`` first when ticking by hand)."""
        self._events[self._made :] = map(TraceEvent._make, self._events[self._made :])
        self._made = len(self._events)
        return self._events

    def close(self) -> None:
        return None


# ---------------------------------------------------------------------------
# Streaming text sinks: CSV and JSONL

_encode_payload = json.JSONEncoder(sort_keys=True).encode


def _payload_json(records: list[TraceRecord]) -> Iterator[str]:
    """Each record's payload as sorted-key JSON (``""`` when empty); each payload
    *object* is encoded once per batch.  Identity, never content, decides:
    ``{"x": 1} == {"x": True}`` and they hash alike, yet encode differently.
    The batch holds every payload it keys, so no ``id`` is reused meanwhile."""
    texts: dict[int, str] = {}
    for record in records:
        payload = record[5]
        text = texts.get(id(payload))
        if text is None:
            text = texts[id(payload)] = _encode_payload(payload) if payload else ""
        yield text


class _StreamSink:
    """The stream a text sink writes: a path it opens and owns, or a borrowed file.

    A path sink closed at the end of one launch reopens for append on its
    next batch, so a relaunched device writes one file, header once.
    """

    def __init__(self, target: str | Path | TextIO, header: str):
        if isinstance(target, (str, Path)):
            self._path: str | Path | None = target
            self._file: TextIO = open(target, "w", encoding="utf-8", newline="")
        else:
            self._path = None
            self._file = target
        self._file.write(header)

    def _stream(self) -> TextIO:
        if self._file.closed and self._path is not None:
            self._file = open(self._path, "a", encoding="utf-8", newline="")
        return self._file

    def close(self) -> None:
        if self._path is not None:
            self._file.close()
        else:
            self._file.flush()


class CsvSink(_StreamSink):
    """Streams events to a CSV file (header comment carries the version)."""

    def __init__(self, target: str | Path | TextIO):
        super().__init__(target, f"# repro-trace v{TRACE_VERSION}\n")
        csv.writer(self._file).writerow(TraceEvent._fields)

    def write_batch(self, records: list[TraceRecord]) -> None:
        rows = ((*record[:5], text) for record, text in zip(records, _payload_json(records)))
        stream = self._stream()
        csv.writer(stream).writerows(rows)
        stream.flush()  # a batch handed over is a batch a reader can see


def parse_csv(text: str, source: str = "csv") -> list[TraceEvent]:
    """Parse :class:`CsvSink` output back into events (lossless)."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# repro-trace v"):
        raise TraceHeaderError(source, 1, "not a repro-trace CSV: missing version header")
    version = lines[0].rsplit("v", 1)[1].strip()
    if version != str(TRACE_VERSION):
        raise TraceVersionError(source, 1, version)
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    header = next(reader, None)
    if tuple(header or ()) != TraceEvent._fields:
        raise TraceHeaderError(source, 2, f"unexpected CSV columns: {header}")
    events = []
    for row in reader:
        if not row:
            continue
        try:
            cycle, core, warp, channel, kind, payload = row
            decoded = json.loads(payload) if payload else {}
            events.append(TraceEvent(int(cycle), int(core), int(warp), channel, kind, decoded))
        except ValueError as error:  # field count, int(), JSONDecodeError
            number = reader.line_num + 1
            raise TraceRecordError(source, number, str(error), lines[number - 1]) from error
    return events


class JsonlSink(_StreamSink):
    """Streams events as one JSON object per line after a header record."""

    def __init__(self, target: str | Path | TextIO):
        header = {"format": "repro-trace", "version": TRACE_VERSION}
        super().__init__(target, json.dumps(header, sort_keys=True) + "\n")
        #: (channel, kind) -> the constant text before ``core`` and after ``cycle``.
        self._pieces: dict[tuple[str, str], tuple[str, str]] = {}

    def write_batch(self, records: list[TraceRecord]) -> None:
        # Byte-for-byte ``json.dumps(record, sort_keys=True)`` per line: keys
        # channel, core, cycle, kind, payload (omitted when empty), warp.  The
        # memo rule is :func:`_payload_json`'s, inlined; a record that is the
        # previous record's object (``emit(count=n)``) repeats its line.
        pieces = self._pieces
        texts: dict[int, str] = {}
        lines: list[str] = []
        last: TraceRecord | None = None
        line = ""
        for record in records:
            if record is not last:
                last = record
                cycle, core, warp, channel, kind, payload = record
                piece = pieces.get((channel, kind))
                if piece is None:
                    head = f'{{"channel": {json.dumps(channel)}, "core": '
                    piece = pieces[channel, kind] = (head, f', "kind": {json.dumps(kind)}, ')
                head, mid = piece
                text = ""
                if payload:
                    text = texts.get(id(payload), "")
                    if not text:
                        text = texts[id(payload)] = f'"payload": {_encode_payload(payload)}, '
                line = f'{head}{core}, "cycle": {cycle}{mid}{text}"warp": {warp}}}\n'
            lines.append(line)
        stream = self._stream()
        stream.write("".join(lines))
        stream.flush()  # a batch handed over is a batch a reader can see


def parse_jsonl(text: str, source: str = "jsonl") -> list[TraceEvent]:
    """Parse :class:`JsonlSink` output back into events (lossless)."""
    lines = [(number, line) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    number, line = lines[0] if lines else (1, "")
    try:
        header = json.loads(line)
        if header["format"] != "repro-trace":
            raise KeyError("format")
        version = header["version"]
    except (ValueError, KeyError, TypeError) as error:
        message = "not a repro-trace JSONL: missing format header"
        raise TraceHeaderError(source, number, message, line) from error
    if version != TRACE_VERSION:
        raise TraceVersionError(source, number, version)
    events = []
    for number, line in lines[1:]:
        try:
            record = json.loads(line)
            fields = [record[name] for name in TraceEvent._fields[:5]]
            events.append(TraceEvent(*fields, record.get("payload", {})))
        except (ValueError, KeyError, TypeError, AttributeError) as error:
            raise TraceRecordError(source, number, repr(error), line) from error
    return events


# ---------------------------------------------------------------------------
# VCD

#: Change record: ``(cycle, core, channel, kind, warp)``.
VcdChange = tuple[int, int, str, str, int]


def vcd_changes(events: list[TraceEvent]) -> list[VcdChange]:
    """The pure change-projection a VCD dump records.

    VCD wires carry one value per time step: coincident events on the same
    (core, channel) wire within one cycle collapse to the *last* one, and a
    value identical to the wire's previous value emits no change.  Payloads
    are not representable on a wire and are dropped (use CSV/JSONL for
    lossless capture).  Within one cycle, changes are ordered by
    ``(core, channel)`` — the writer's deterministic wire order.
    """
    changes: list[VcdChange] = []
    last: dict[tuple[int, str], tuple[str, int]] = {}
    pending: dict[tuple[int, str], tuple[str, int]] = {}
    current_cycle: int | None = None

    def flush() -> None:
        if current_cycle is None:
            return
        for (core, channel) in sorted(pending):
            value = pending[(core, channel)]
            if last.get((core, channel)) != value:
                changes.append((current_cycle, core, channel, value[0], value[1]))
                last[(core, channel)] = value
        pending.clear()

    for event in events:
        if event.cycle != current_cycle:
            flush()
            current_cycle = event.cycle
        pending[(event.core, event.channel)] = (event.kind, event.warp)
    flush()
    return changes


def _vcd_ident(index: int) -> str:
    """Deterministic short VCD identifier for wire ``index`` (base-94)."""
    chars = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, 94)
        chars = chr(33 + digit) + chars
    return chars


class VcdSink(MemorySink):
    """Keeps the records and writes a value-change dump on :meth:`close`.

    A path is rewritten with every record so far on each close, so a device
    that closes its trace when a launch drains holds every launch in one
    document; a borrowed stream receives the document once, at the first
    close.  The kind→code mapping and the wire table are embedded as JSON in
    a ``$comment`` section so :func:`parse_vcd` (and third-party tooling)
    can decode values without out-of-band knowledge.  The ``$date`` field
    is a fixed string — traces must be byte-deterministic.
    """

    def __init__(self, target: str | Path | TextIO):
        super().__init__()
        self._target = target
        self._closed = False

    def close(self) -> None:
        if isinstance(self._target, (str, Path)):
            Path(self._target).write_text(encode_vcd(self.events), encoding="utf-8")
        elif not self._closed:
            self._target.write(encode_vcd(self.events))
            self._target.flush()
        self._closed = True


def encode_vcd(events: list[TraceEvent]) -> str:
    """Render ``events`` as a VCD document (pure; used by :class:`VcdSink`)."""
    changes = vcd_changes(events)
    kinds = sorted({event.kind for event in events})
    kind_codes = {kind: code + 1 for code, kind in enumerate(kinds)}
    wires = sorted({(event.core, event.channel) for event in events})
    wire_ids = {wire: _vcd_ident(index) for index, wire in enumerate(wires)}
    meta = {
        "format": "repro-trace",
        "version": TRACE_VERSION,
        "kinds": kind_codes,
        "wires": [[core, channel, wire_ids[(core, channel)]] for core, channel in wires],
    }
    out = io.StringIO()
    out.write("$date repro-trace $end\n")
    out.write(f"$version repro.trace v{TRACE_VERSION} $end\n")
    out.write("$timescale 1ns $end\n")
    out.write(f"$comment {json.dumps(meta, sort_keys=True)} $end\n")
    out.write("$scope module repro $end\n")
    for core, channel in wires:
        out.write(f"$var wire 32 {wire_ids[(core, channel)]} core{core}_{channel} $end\n")
    out.write("$upscope $end\n")
    out.write("$enddefinitions $end\n")
    current_cycle: int | None = None
    for cycle, core, channel, kind, warp in changes:
        if cycle != current_cycle:
            out.write(f"#{cycle}\n")
            current_cycle = cycle
        value = (kind_codes[kind] << 8) | ((warp + 2) & 0xFF)
        out.write(f"b{value:b} {wire_ids[(core, channel)]}\n")
    return out.getvalue()


def parse_vcd(text: str, source: str = "vcd") -> list[VcdChange]:
    """Parse :func:`encode_vcd` output back into change records."""
    lines = [line.strip() for line in text.splitlines()] or [""]
    number = next((n for n, line in enumerate(lines, 1) if line.startswith("$comment ")), 1)
    comment = lines[number - 1]
    try:
        meta = json.loads(comment[len("$comment ") : -len(" $end")])
        if meta["format"] != "repro-trace":
            raise KeyError("format")
        version = meta["version"]
        if version == TRACE_VERSION:
            code_kinds = {code: kind for kind, code in meta["kinds"].items()}
            wires = {ident: (core, channel) for core, channel, ident in meta["wires"]}
    except (ValueError, LookupError, TypeError, AttributeError) as error:
        message = "not a repro-trace VCD: missing $comment metadata"
        raise TraceHeaderError(source, number, message, comment) from error
    if version != TRACE_VERSION:
        raise TraceVersionError(source, number, version)
    changes: list[VcdChange] = []
    cycle = 0
    in_definitions = True
    for number, line in enumerate(lines, 1):
        if in_definitions:
            if line == "$enddefinitions $end":
                in_definitions = False
            continue
        try:
            if line.startswith("#"):
                cycle = int(line[1:])
            elif line.startswith("b"):
                bits, ident = line[1:].split()
                value = int(bits, 2)
                core, channel = wires[ident]
                kind = code_kinds[value >> 8]
                changes.append((cycle, core, channel, kind, (value & 0xFF) - 2))
        except (ValueError, KeyError) as error:
            raise TraceRecordError(source, number, repr(error), line) from error
    return changes


# ---------------------------------------------------------------------------
# Format sniffing (CLI entry point)


def load_trace(path: str | Path) -> list[TraceEvent]:
    """Load a CSV or JSONL trace, sniffing the format from the header.

    VCD is intentionally excluded: its projection is lossy (no payloads),
    so analyzers work from the lossless formats; use :func:`parse_vcd`
    directly to inspect a waveform dump.
    """
    text = Path(path).read_text(encoding="utf-8")
    head = text.lstrip()[:1]
    if head == "#":
        return parse_csv(text, str(path))
    if head == "{":
        return parse_jsonl(text, str(path))
    raise TraceHeaderError(str(path), 1, "unrecognized trace format (expected CSV or JSONL)")


__all__ = [
    "TraceFormatError",
    "TraceHeaderError",
    "TraceVersionError",
    "TraceRecordError",
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
    "VcdChange",
]
