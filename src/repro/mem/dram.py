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

from repro.common.clock import NEVER, DeviceClock
from repro.common.config import MemoryConfig
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, Codec, Stateful
from repro.trace.events import NO_WARP


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


def _restore_queue(
    dram: DramModel, data: list[dict], queue: deque[_InFlight], decode: Callable[[Any], Any]
) -> deque[_InFlight]:
    queue.clear()
    for item in data:
        fields = dict(item, tag=decode(item["tag"]))
        ready_cycle = fields.pop("ready_cycle")
        queue.append(_InFlight(MemRequest(**fields), ready_cycle))
    return queue


#: The request queue in order: each request's fields plus its ready cycle.
#: Fill tags carry a live cache reference: the memory subsystem's ``refs``
#: name the cache.
_QUEUE = Codec(
    lambda dram, queue, encode: [
        {
            **vars(in_flight.request),
            "tag": encode(in_flight.request.tag),
            "ready_cycle": in_flight.ready_cycle,
        }
        for in_flight in queue
    ],
    _restore_queue,
)


class DramModel(Stateful):
    """Fixed-latency, bandwidth-limited memory device."""

    STATE = {"_queue": _QUEUE, "perf": CHILD}
    #: Construction-time timing parameters, the processor's clock, ``wake``
    #: (the queue head's ready cycle) and ``room`` (the queue's free slots)
    #: (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"config", "trace", "clock", "wake", "room"})
    #: The channel of its ``response`` events, as a cache's ``trace_channel``.
    trace_channel = "dram"

    def __init__(self, config: MemoryConfig | None = None):
        self.config = config or MemoryConfig()
        self.clock = DeviceClock()  # private until the memory subsystem installs the device's
        self._queue: deque[_InFlight] = deque()
        self.wake = 0  # no tick before it has work: the head request's ready cycle
        #: Free request-queue slots: what the caches' drains read of DRAM.
        self.room = self.config.request_queue_size
        self.perf = PerfCounters("dram")
        # Observability (attached by MemorySubsystem.attach_trace): one
        # ``dram`` event per completed response.  Rejections are deliberately
        # *not* traced: a refusal changes nothing here, and the caches above
        # charge refusals of a full queue as counts (tally charges, drain
        # repeats, the fast-forward's replays), so a traced and an untraced
        # run take the same paths.
        self.trace: Any = None

    def after_restore(self) -> None:
        self.wake = 0
        self.room = self.config.request_queue_size - len(self._queue)

    # -- request side -----------------------------------------------------------------

    @property
    def can_accept(self) -> bool:
        """True when the request queue has room this cycle."""
        return self.room > 0

    def send(self, request: MemRequest) -> bool:
        """Queue a request; returns False when the queue is full."""
        if not self.room:
            self.perf.incr("rejected")
            return False
        request.issue_cycle = now = self.clock.now
        if not self._queue:
            self.wake = now + self.config.latency
        self._queue.append(_InFlight(request=request, ready_cycle=now + self.config.latency))
        self.room -= 1
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
                    self.trace_channel,
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
        self.wake = self._queue[0].ready_cycle if self._queue else NEVER
        self.room += self.config.bandwidth - budget
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

    # -- inspection -------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of requests currently in flight."""
        return len(self._queue)

    @property
    def average_latency(self) -> float:
        """Observed average request latency including queueing delay."""
        return self.perf.ratio("total_latency", "responses")
