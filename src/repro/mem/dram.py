"""Off-chip memory timing model.

The cycle-level driver routes every cache miss through a :class:`DramModel`
configured with a fixed access ``latency`` and a ``bandwidth`` expressed as
the number of line-sized responses the device can return per cycle — the
two knobs Figure 21 sweeps.  Requests enter a bounded queue (deadlock rule
from section 4.3: the cache never lets this queue fill up), wait out the
latency, and are released in order subject to the bandwidth limit.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.common.clock import DeviceClock
from repro.common.config import MemoryConfig
from repro.common.perf import PerfCounters, hot_path
from repro.trace.events import NO_WARP


def _identity_tag(tag: Any) -> Any:
    return tag


@dataclass
class MemRequest:
    """A line-sized request sent to off-chip memory."""

    address: int
    is_write: bool = False
    tag: Any = None
    issue_cycle: int = 0


@dataclass
class MemResponse:
    """A completed memory request."""

    address: int
    is_write: bool
    tag: Any


@dataclass
class _InFlight:
    request: MemRequest
    ready_cycle: int


class DramModel:
    """Fixed-latency, bandwidth-limited memory device."""

    #: Counter schema (vxlint VX003).
    COUNTERS = frozenset(
        {
            "rejected",
            "reads",
            "writes",
            "responses",
            "total_latency",
            "bandwidth_stalls",
        }
    )

    #: Construction-time timing parameters, and the processor's clock (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"config", "trace", "clock"})

    def __init__(self, config: MemoryConfig | None = None):
        self.config = config or MemoryConfig()
        self.clock = DeviceClock()  # private until the memory subsystem installs the device's
        self._queue: deque[_InFlight] = deque()
        self.perf = PerfCounters("dram")
        # Observability (attached by MemorySubsystem.attach_trace): one
        # ``dram`` event per completed response.  Rejections are deliberately
        # *not* traced — the fast-forward skips provably-refused retry storms,
        # and its replayed event stream must match the ticked one exactly.
        self.trace: Any = None

    # -- request side -----------------------------------------------------------------

    @property
    def can_accept(self) -> bool:
        """True when the request queue has room this cycle."""
        return len(self._queue) < self.config.request_queue_size

    @hot_path
    def send(self, request: MemRequest) -> bool:
        """Queue a request; returns False when the queue is full."""
        if not self.can_accept:
            self.perf.incr("rejected")
            return False
        request.issue_cycle = now = self.clock.now
        self._queue.append(_InFlight(request=request, ready_cycle=now + self.config.latency))
        self.perf.incr("writes" if request.is_write else "reads")
        return True

    # -- clocking --------------------------------------------------------------------

    def tick(self) -> list[MemResponse]:
        """Return the responses completing this cycle."""
        now = self.clock.now
        responses: list[MemResponse] = []
        budget = self.config.bandwidth
        trace = self.trace
        while budget > 0 and self._queue and self._queue[0].ready_cycle <= now:
            in_flight = self._queue.popleft()
            responses.append(
                MemResponse(
                    address=in_flight.request.address,
                    is_write=in_flight.request.is_write,
                    tag=in_flight.request.tag,
                )
            )
            latency = now - in_flight.request.issue_cycle
            self.perf.incr("total_latency", latency)
            self.perf.incr("responses")
            if trace is not None:
                trace.emit(
                    now,
                    -1,
                    NO_WARP,
                    "dram",
                    "response",
                    {
                        "address": in_flight.request.address,
                        "write": in_flight.request.is_write,
                        "latency": latency,
                    },
                )
            budget -= 1
        if self._queue and self._queue[0].ready_cycle <= now and budget == 0:
            self.perf.incr("bandwidth_stalls")
        return responses

    # -- fast-forward ------------------------------------------------------------------

    def next_event_cycle(self) -> int | None:
        """Cycle of the next in-order release (``None`` when the queue is empty).

        Requests complete in order with a fixed latency, so the head of the
        queue carries the earliest ready cycle.  A head that is *already*
        ready (bandwidth-limited last tick) reports its past ready cycle,
        which the fast-forward caller treats as "event next tick" — the
        ``bandwidth_stalls`` accounting must keep running every cycle.
        """
        if not self._queue:
            return None
        return self._queue[0].ready_cycle

    # -- checkpoint/restore ------------------------------------------------------------

    def snapshot(self, encode_tag: Callable[[Any], Any] | None = None) -> dict:
        """Serialize the request queue.

        ``encode_tag`` maps request tags to plain data — fill tags carry a
        live cache reference, which :class:`~repro.cache.hierarchy.MemorySubsystem`
        encodes by cache name and rebinds on restore.
        """
        encode = encode_tag if encode_tag is not None else _identity_tag
        return {
            "queue": [
                {
                    "address": in_flight.request.address,
                    "is_write": in_flight.request.is_write,
                    "tag": encode(in_flight.request.tag),
                    "issue_cycle": in_flight.request.issue_cycle,
                    "ready_cycle": in_flight.ready_cycle,
                }
                for in_flight in self._queue
            ],
            "perf": self.perf.snapshot(),
        }

    def restore(self, payload: dict, decode_tag: Callable[[Any], Any] | None = None) -> None:
        """Restore the request queue from a :meth:`snapshot` payload."""
        decode = decode_tag if decode_tag is not None else _identity_tag
        self._queue.clear()
        for item in payload["queue"]:
            self._queue.append(
                _InFlight(
                    request=MemRequest(
                        address=item["address"],
                        is_write=item["is_write"],
                        tag=decode(item["tag"]),
                        issue_cycle=item["issue_cycle"],
                    ),
                    ready_cycle=item["ready_cycle"],
                )
            )
        self.perf.restore(payload["perf"])

    # -- inspection -------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of requests currently in flight."""
        return len(self._queue)

    @property
    def average_latency(self) -> float:
        """Observed average request latency including queueing delay."""
        return self.perf.ratio("total_latency", "responses")
