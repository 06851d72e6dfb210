"""The trace bus: one emission point fanning out to pluggable sinks.

A :class:`TraceBus` is constructed by the driver (``"simx:trace=vcd"``)
and handed to every instrumented component.  Components keep the
tracing-off hot path allocation-free by holding ``trace = None`` when no
bus is attached and guarding every emission::

    trace = self.trace
    if trace is not None:
        trace.emit(self.cycle, self.core_id, warp, "scheduler", "issue", {...})

An unguarded emission raises on ``None`` in every untraced run that
reaches it, so the test suite holds the guard.  Channel filtering (``trace_channels=scheduler+dcache``)
happens inside :meth:`TraceBus.emit`, so it only costs anything when
tracing is already on.

``emit`` costs one append: the plain record ``(cycle, core, warp, channel,
kind, payload)`` — :class:`TraceEvent`'s field order — joins a pending list
that every sink receives (``write_batch``) and encodes once it holds
:attr:`TraceBus.FLUSH_EVENTS` records and on ``flush()``/``close()``.  A run
of ``n`` identical events is one ``emit(..., count=n)``: the one record tuple
appended ``n`` times; ``n`` repetitions of a sequence of records (one per
cache level a refused lane visits) are one ``emit_pattern``.  So read a
sink only after a flush — ``SimxDriver.run`` flushes in a ``finally`` on
every return, code that ticks a
``TimingProcessor`` by hand calls ``bus.flush()`` first (``events_emitted``
counts pending records too) — and never mutate a payload after emitting it:
call sites share one payload object between events, encoded once per batch.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Protocol

from repro.common.clock import NEVER
from repro.trace.events import CHANNELS, TraceRecord


class TraceSink(Protocol):
    """Anything that can receive batches of records (see :mod:`.sinks`)."""

    def write_batch(self, records: list[TraceRecord]) -> None: ...

    def close(self) -> None: ...


class TraceBus:
    """Fan-out point for simulator trace events.

    ``channels``, when given, restricts emission to that subset of
    :data:`~repro.trace.events.CHANNELS`; ``None`` records everything.
    """

    #: Pending records that trigger a hand-over to the sinks.  Small on purpose:
    #: at 16 Ki the pending payloads cost +30 % peak RSS and the run is slower.
    FLUSH_EVENTS = 1024

    def __init__(
        self,
        sinks: list[TraceSink],
        channels: list[str] | tuple[str, ...] | None = None,
    ):
        if channels is not None:
            unknown = sorted(set(channels) - set(CHANNELS))
            if unknown:
                raise ValueError(
                    f"unknown trace channel(s) {unknown}; available: {sorted(CHANNELS)}"
                )
        self.sinks = list(sinks)
        self.channels: frozenset[str] | None = (
            frozenset(channels) if channels is not None else None
        )
        self._pending: list[TraceRecord] = []
        self._flushed = 0
        self._flush_at = self.FLUSH_EVENTS

    @property
    def events_emitted(self) -> int:
        """Events accepted so far, handed to the sinks or still pending."""
        return self._flushed + len(self._pending)

    def wants(self, channel: str) -> bool:
        """True when ``channel`` passes the filter (used at attach time)."""
        return self.channels is None or channel in self.channels

    def emit(
        self,
        cycle: int,
        core: int,
        warp: int,
        channel: str,
        kind: str,
        payload: dict[str, Any] | None = None,
        count: int = 1,
    ) -> None:
        """Record ``count`` identical events (subject to the channel filter).

        ``payload`` is encoded at the next flush: do not mutate it afterwards.
        """
        if self.channels is not None and channel not in self.channels:
            return
        pending = self._pending
        record = (cycle, core, warp, channel, kind, payload or {})
        if count == 1:
            pending.append(record)
        else:
            pending += [record] * count
        if len(pending) >= self._flush_at:
            self.flush()

    def emit_pattern(self, records: list[TraceRecord], count: int = 1) -> None:
        """Record ``count`` repetitions of ``records``, built by the caller on
        channels it :meth:`wants`: lanes that emit the same events, in one append."""
        pending = self._pending
        pending += records * count
        if len(pending) >= self._flush_at:
            self.flush()

    @contextmanager
    def in_cycle_order(self) -> Iterator[None]:
        """Hold what is emitted inside, then sort it by cycle (stably): emitters
        that replay one window in turn, each cycle by cycle, leave the order
        in which ticking through the window emits."""
        mark, self._flush_at = len(self._pending), NEVER
        try:
            yield
        finally:
            self._flush_at = self.FLUSH_EVENTS
            self._pending[mark:] = sorted(self._pending[mark:], key=itemgetter(0))
            if len(self._pending) >= self._flush_at:
                self.flush()

    def flush(self) -> None:
        """Hand the pending records to every sink (one batch each)."""
        pending = self._pending
        if pending:
            self._pending = []
            self._flushed += len(pending)
            for sink in self.sinks:
                sink.write_batch(pending)

    def close(self) -> None:
        """Flush and close every sink."""
        self.flush()
        for sink in self.sinks:
            sink.close()


__all__ = ["TraceBus", "TraceSink"]
