"""The non-blocking multi-banked cache (Figure 6).

``NonBlockingCache`` implements the front-end bank selector (including the
virtual multi-porting coalescing of same-line requests), the per-bank MSHRs
and response scheduling, and the back-end merger that hands completed
responses back to the requester.  Misses are forwarded through a *lower
port* — either the DRAM model or the next cache level — supplied by the
memory subsystem.

The deadlock-avoidance rules from the paper are honoured at the acceptance
point: a request is refused (and retried by the requester next cycle) when
its bank's MSHR signals early-full or when the lower level cannot accept a
new fill, so neither the MSHR nor the memory request queue can be
overcommitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

from repro.cache.bank import BankRequest, CacheBank
from repro.common.config import CacheConfig
from repro.common.perf import PerfCounters, hot_path
from repro.trace.events import NO_WARP


@dataclass
class CacheResponse:
    """A completed core-side request."""

    address: int
    is_write: bool
    tag: Any
    hit: bool
    cycle: int


class LowerPort:
    """Interface to the next memory level.

    ``request_fill`` asks for a full line (read); ``request_write`` forwards
    a write-through store.  Both return False when the lower level cannot
    accept more traffic this cycle.
    """

    #: True when one refusal implies every further request this cycle is
    #: also refused (a shared queue that only fills during a drain).  The
    #: cache's batch path then skips the call and charges
    #: :meth:`note_skipped_refusal` instead — the refusal-side counters of
    #: the lower level must still advance per attempt.
    sticky_refusal = False

    def request_fill(self, cache: NonBlockingCache, line_address: int) -> bool:
        raise NotImplementedError

    def request_write(self, cache: NonBlockingCache, address: int) -> bool:
        raise NotImplementedError

    def note_skipped_refusal(self, count: int = 1) -> None:
        """Charge the counters ``count`` skipped (provably refused) requests would have."""
        raise NotImplementedError

    def refusal_horizon(self) -> int | None:
        """Cycle until which (exclusively) every request is provably refused.

        ``None`` means no guarantee.  Only a sticky port can promise one: a
        full shared queue refuses everything until its next in-order release,
        which lets the fast-forward treat a retry storm as event-free.
        """
        return None


class NonBlockingCache:
    """Multi-banked, non-blocking, virtually multi-ported cache."""

    #: Counter schema (vxlint VX003): every literal key charged against this
    #: component's ``perf``/``_counters``.  :meth:`send` and
    #: :meth:`send_batch` must stay within this set — bit-identical counters
    #: between them are the repo-wide contract.
    COUNTERS = frozenset(
        {
            "attempts",
            "accepted",
            "bank_conflicts",
            "mshr_stalls",
            "memq_stalls",
            "read_hits",
            "read_misses",
            "write_hits",
            "write_misses",
            "fills",
            "cycles",
        }
    )

    #: Construction-time wiring and hot-path prebinds (vxlint VX007):
    #: ``lower`` is topology, ``_line_size``/``_num_banks``/``_num_ports``
    #: derive from config and ``_counters`` aliases ``perf._counters``
    #: (serialized under the ``"perf"`` key).
    SNAPSHOT_EXCLUDED = frozenset(
        {
            "config",
            "lower",
            "_line_size",
            "_num_banks",
            "_num_ports",
            "_counters",
            "trace",
            "trace_channel",
            "trace_core",
        }
    )

    def __init__(self, name: str, config: CacheConfig, lower: LowerPort | None = None):
        self.name = name
        self.config = config
        self.lower = lower
        self.banks = [CacheBank(bank_id, config) for bank_id in range(config.num_banks)]
        self.perf = PerfCounters(name)
        self._cycle = 0
        # Observability (attached by MemorySubsystem.attach_trace): one trace
        # event per request *attempt*, mirroring the refusal/hit/miss counter
        # charged for it, so reconciliation holds by construction.
        self.trace: Any = None
        self.trace_channel = ""
        self.trace_core = -1
        # Per-cycle bank selector state: bank -> (first line address, accept count).
        self._accepts_this_cycle: dict[int, tuple[int, int]] = {}
        self._responses: list[CacheResponse] = []
        # Hot-path bindings: the send paths run once per request *attempt*
        # (the cycle-level core retries refusals every cycle), so the
        # per-attempt constants and the raw counter dict are prebound.
        self._line_size = config.line_size
        self._num_banks = config.num_banks
        self._num_ports = config.num_ports
        self._counters = self.perf._counters

    # -- address helpers ----------------------------------------------------------------

    def line_address(self, address: int) -> int:
        return address // self.config.line_size

    def bank_index(self, address: int) -> int:
        return self.line_address(address) % self.config.num_banks

    # -- front-end: bank selector ----------------------------------------------------------

    @hot_path
    def send(self, address: int, is_write: bool = False, tag: Any = None) -> bool:
        """Present one request to the bank selector.

        Returns True when the request is accepted this cycle; the response
        arrives later through :meth:`tick`.  A False return means the
        requester must retry next cycle (bank conflict, MSHR early-full, or
        lower-level backpressure).  No request record is allocated per
        attempt: a :class:`~repro.cache.bank.BankRequest` is only built once
        the request is actually accepted into a bank.

        This is the single-request path (instruction fetches, L1→L2/L3
        traffic) and the per-request oracle :meth:`send_batch` is held to by
        the property tests in ``tests/test_cache.py``.
        """
        counters = self._counters
        counters["attempts"] += 1
        trace = self.trace
        line = address // self._line_size
        bank_id = line % self._num_banks
        accepted = self._accepts_this_cycle.get(bank_id)
        if accepted is not None:
            first_line, count = accepted
            if count >= self._num_ports or first_line != line:
                counters["bank_conflicts"] += 1
                if trace is not None:
                    trace.emit(
                        self._cycle,
                        self.trace_core,
                        NO_WARP,
                        self.trace_channel,
                        "conflict",
                        {"bank": bank_id, "line": line, "write": is_write},
                    )
                return False
        bank = self.banks[bank_id]
        if not is_write and bank.mshr.almost_full:
            counters["mshr_stalls"] += 1
            if trace is not None:
                trace.emit(
                    self._cycle,
                    self.trace_core,
                    NO_WARP,
                    self.trace_channel,
                    "mshr-stall",
                    {"bank": bank_id, "line": line, "write": False},
                )
            return False

        hit = bank.probe(line)

        if is_write:
            # Write-through, no-allocate: the store is forwarded to the lower
            # level; a write hit also updates the cached line's LRU state.
            if self.lower is not None and not self.lower.request_write(self, address):
                counters["memq_stalls"] += 1
                if trace is not None:
                    trace.emit(
                        self._cycle,
                        self.trace_core,
                        NO_WARP,
                        self.trace_channel,
                        "refusal",
                        {"bank": bank_id, "line": line, "write": True},
                    )
                return False
            if hit:
                bank.touch(line)
                counters["write_hits"] += 1
            else:
                counters["write_misses"] += 1
            if trace is not None:
                trace.emit(
                    self._cycle,
                    self.trace_core,
                    NO_WARP,
                    self.trace_channel,
                    "hit" if hit else "miss",
                    {"bank": bank_id, "line": line, "write": True},
                )
            bank.schedule_response(
                BankRequest(address=address, is_write=True, tag=tag, accept_cycle=self._cycle),
                self._cycle,
                hit,
            )
        elif hit:
            bank.touch(line)
            bank.schedule_response(
                BankRequest(address=address, is_write=False, tag=tag, accept_cycle=self._cycle),
                self._cycle,
                True,
            )
            counters["read_hits"] += 1
            if trace is not None:
                trace.emit(
                    self._cycle,
                    self.trace_core,
                    NO_WARP,
                    self.trace_channel,
                    "hit",
                    {"bank": bank_id, "line": line, "write": False},
                )
        else:
            existing = bank.mshr.lookup(line)
            if existing is None and self.lower is not None:
                if not self.lower.request_fill(self, line):
                    counters["memq_stalls"] += 1
                    if trace is not None:
                        trace.emit(
                            self._cycle,
                            self.trace_core,
                            NO_WARP,
                            self.trace_channel,
                            "refusal",
                            {"bank": bank_id, "line": line, "write": False},
                        )
                    return False
            entry = bank.mshr.allocate(
                line,
                BankRequest(address=address, is_write=False, tag=tag, accept_cycle=self._cycle),
            )
            if entry is None:
                counters["mshr_stalls"] += 1
                if trace is not None:
                    trace.emit(
                        self._cycle,
                        self.trace_core,
                        NO_WARP,
                        self.trace_channel,
                        "mshr-stall",
                        {"bank": bank_id, "line": line, "write": False},
                    )
                return False
            counters["read_misses"] += 1
            if trace is not None:
                payload = {"bank": bank_id, "line": line, "write": False}
                if existing is not None:
                    payload["merge"] = True
                trace.emit(
                    self._cycle,
                    self.trace_core,
                    NO_WARP,
                    self.trace_channel,
                    "miss",
                    payload,
                )

        count = 0 if accepted is None else accepted[1]
        self._accepts_this_cycle[bank_id] = (line, count + 1)
        counters["accepted"] += 1
        return True

    @hot_path
    def send_batch(
        self, requests: list[tuple[Any, ...]], budget: int, is_write: bool, tag: Any
    ) -> tuple[int, list[tuple[Any, ...]], int]:
        """Present a whole warp's outstanding requests in one call.

        ``requests`` is a list of ``(address, line, bank_id, ...)`` tuples —
        the line/bank fields are precomputed once per memory instruction by
        the timing core (numpy over the lane trace) instead of re-derived on
        every retry attempt.  Requests are attempted strictly in order while
        ``budget`` (the LSU's per-thread ports) lasts; a refused attempt
        keeps its tuple in the returned retry list and does *not* consume
        budget, exactly like a loop of :meth:`send` calls.

        Returns ``(accepted, refused, budget)`` where ``refused`` preserves
        order: refused attempts first, then the un-attempted tail once the
        budget ran out.  Counter updates are aggregated in locals and
        flushed once, but count per-attempt outcomes identically to
        :meth:`send` — bit-identical counters are the contract
        (``tests/test_cache.py`` holds both paths to it with a property
        test).
        """
        counters = self._counters
        accepts = self._accepts_this_cycle
        banks = self.banks
        num_ports = self._num_ports
        num_banks = self._num_banks
        lower = self.lower
        cycle = self._cycle
        trace = self.trace
        trace_core = self.trace_core
        trace_channel = self.trace_channel
        # Saturation fast path: once every bank has all its ports taken this
        # cycle, the port check (which precedes every other refusal reason)
        # rejects any further request as a bank conflict without touching any
        # state — so the rest of the batch can be refused in bulk.  This is
        # where the retry wall actually burns host time: a port-limited warp
        # re-attempts each refused lane every cycle, and nearly all of those
        # attempts land on saturated banks.
        full_banks = 0
        for _first_line, count in accepts.values():
            if count >= num_ports:
                full_banks += 1
        if full_banks >= num_banks and budget > 0:
            total = len(requests)
            counters["attempts"] += total
            counters["bank_conflicts"] += total
            if trace is not None:
                for entry in requests:
                    trace.emit(
                        cycle,
                        trace_core,
                        NO_WARP,
                        trace_channel,
                        "conflict",
                        {"bank": entry[2], "line": entry[1], "write": is_write},
                    )
            return 0, requests, budget
        attempts = accepted_count = bank_conflicts = mshr_stalls = memq_stalls = 0
        read_hits = read_misses = write_hits = write_misses = 0
        # Sticky lower-level backpressure: once a DRAM-backed lower port
        # refuses, every further fill/write this cycle is provably refused
        # too (the shared queue only fills during a drain), so the call is
        # skipped and its refusal-side counters charged directly.
        lower_sticky = lower is not None and lower.sticky_refusal
        lower_full = False
        refused: list[tuple[Any, ...]] = []
        index = 0
        total = len(requests)
        while index < total:
            if budget <= 0:
                refused.extend(requests[index:])
                break
            entry = requests[index]
            index += 1
            address = entry[0]
            line = entry[1]
            bank_id = entry[2]
            attempts += 1

            accepted = accepts.get(bank_id)
            if accepted is not None:
                first_line, count = accepted
                if count >= num_ports or first_line != line:
                    bank_conflicts += 1
                    refused.append(entry)
                    if trace is not None:
                        trace.emit(
                            cycle,
                            trace_core,
                            NO_WARP,
                            trace_channel,
                            "conflict",
                            {"bank": bank_id, "line": line, "write": is_write},
                        )
                    continue
            bank = banks[bank_id]
            mshr = bank.mshr
            if not is_write and mshr.almost_full:
                mshr_stalls += 1
                refused.append(entry)
                if trace is not None:
                    trace.emit(
                        cycle,
                        trace_core,
                        NO_WARP,
                        trace_channel,
                        "mshr-stall",
                        {"bank": bank_id, "line": line, "write": False},
                    )
                continue

            if is_write:
                if lower is not None and not lower.request_write(self, address):
                    memq_stalls += 1
                    refused.append(entry)
                    if trace is not None:
                        trace.emit(
                            cycle,
                            trace_core,
                            NO_WARP,
                            trace_channel,
                            "refusal",
                            {"bank": bank_id, "line": line, "write": True},
                        )
                    if lower_sticky:
                        # Sticky lower: no remaining write can be accepted
                        # (every write-through needs the shared lower queue)
                        # and refusals mutate nothing, so the tail is
                        # classified in one pass — saturated-port entries
                        # charge bank conflicts, the rest charge lower
                        # refusals — exactly as the per-entry loop would.
                        # Budget stays positive throughout (only accepts
                        # consume it), so every tail entry counts as an
                        # attempt.
                        tail = requests[index:]
                        attempts += len(tail)
                        skipped = 0
                        for tail_entry in tail:
                            accepted = accepts.get(tail_entry[2])
                            if accepted is not None and (
                                accepted[1] >= num_ports or accepted[0] != tail_entry[1]
                            ):
                                bank_conflicts += 1
                                if trace is not None:
                                    trace.emit(
                                        cycle,
                                        trace_core,
                                        NO_WARP,
                                        trace_channel,
                                        "conflict",
                                        {
                                            "bank": tail_entry[2],
                                            "line": tail_entry[1],
                                            "write": True,
                                        },
                                    )
                            else:
                                skipped += 1
                                if trace is not None:
                                    trace.emit(
                                        cycle,
                                        trace_core,
                                        NO_WARP,
                                        trace_channel,
                                        "refusal",
                                        {
                                            "bank": tail_entry[2],
                                            "line": tail_entry[1],
                                            "write": True,
                                        },
                                    )
                        if skipped:
                            memq_stalls += skipped
                            lower.note_skipped_refusal(skipped)
                        refused.extend(tail)
                        break
                    continue
                hit = bank.probe(line)
                if hit:
                    bank.touch(line)
                    write_hits += 1
                else:
                    write_misses += 1
                if trace is not None:
                    trace.emit(
                        cycle,
                        trace_core,
                        NO_WARP,
                        trace_channel,
                        "hit" if hit else "miss",
                        {"bank": bank_id, "line": line, "write": True},
                    )
                bank.schedule_response(
                    BankRequest(address=address, is_write=True, tag=tag, accept_cycle=cycle),
                    cycle,
                    hit,
                )
            elif bank.probe(line):
                bank.touch(line)
                bank.schedule_response(
                    BankRequest(address=address, is_write=False, tag=tag, accept_cycle=cycle),
                    cycle,
                    True,
                )
                read_hits += 1
                if trace is not None:
                    trace.emit(
                        cycle,
                        trace_core,
                        NO_WARP,
                        trace_channel,
                        "hit",
                        {"bank": bank_id, "line": line, "write": False},
                    )
            else:
                merged = mshr.lookup(line) is not None
                if not merged and lower is not None:
                    if lower_full:
                        lower.note_skipped_refusal()
                        memq_stalls += 1
                        refused.append(entry)
                        if trace is not None:
                            trace.emit(
                                cycle,
                                trace_core,
                                NO_WARP,
                                trace_channel,
                                "refusal",
                                {"bank": bank_id, "line": line, "write": False},
                            )
                        continue
                    if not lower.request_fill(self, line):
                        lower_full = lower_sticky
                        memq_stalls += 1
                        refused.append(entry)
                        if trace is not None:
                            trace.emit(
                                cycle,
                                trace_core,
                                NO_WARP,
                                trace_channel,
                                "refusal",
                                {"bank": bank_id, "line": line, "write": False},
                            )
                        continue
                mshr_entry = mshr.allocate(
                    line,
                    BankRequest(address=address, is_write=False, tag=tag, accept_cycle=cycle),
                )
                if mshr_entry is None:
                    mshr_stalls += 1
                    refused.append(entry)
                    if trace is not None:
                        trace.emit(
                            cycle,
                            trace_core,
                            NO_WARP,
                            trace_channel,
                            "mshr-stall",
                            {"bank": bank_id, "line": line, "write": False},
                        )
                    continue
                read_misses += 1
                if trace is not None:
                    payload = {"bank": bank_id, "line": line, "write": False}
                    if merged:
                        payload["merge"] = True
                    trace.emit(cycle, trace_core, NO_WARP, trace_channel, "miss", payload)

            count = (0 if accepted is None else accepted[1]) + 1
            accepts[bank_id] = (line, count)
            accepted_count += 1
            budget -= 1
            if count >= num_ports:
                full_banks += 1
                if full_banks >= num_banks and budget > 0 and index < total:
                    remaining = total - index
                    attempts += remaining
                    bank_conflicts += remaining
                    if trace is not None:
                        for tail_entry in requests[index:]:
                            trace.emit(
                                cycle,
                                trace_core,
                                NO_WARP,
                                trace_channel,
                                "conflict",
                                {
                                    "bank": tail_entry[2],
                                    "line": tail_entry[1],
                                    "write": is_write,
                                },
                            )
                    refused.extend(requests[index:])
                    break

        # Flush the aggregated counts; only-touched-when-nonzero keeps the
        # counter key sets identical to :meth:`send`'s.
        if attempts:
            counters["attempts"] += attempts
        if bank_conflicts:
            counters["bank_conflicts"] += bank_conflicts
        if mshr_stalls:
            counters["mshr_stalls"] += mshr_stalls
        if memq_stalls:
            counters["memq_stalls"] += memq_stalls
        if read_hits:
            counters["read_hits"] += read_hits
        if read_misses:
            counters["read_misses"] += read_misses
        if write_hits:
            counters["write_hits"] += write_hits
        if write_misses:
            counters["write_misses"] += write_misses
        if accepted_count:
            counters["accepted"] += accepted_count
        return accepted_count, refused, budget

    # -- checkpoint/restore --------------------------------------------------------------------

    def snapshot(self, encode_tag: Callable[[Any], Any]) -> dict:
        """Serialize clock, per-cycle accept state and every bank.

        ``encode_tag`` maps request tags to plain data (lower-level fill
        tags carry live cache references; the memory subsystem encodes them
        by cache name).  ``_responses`` is legacy drain state that is always
        empty between cycles — asserting it stays empty is cheaper and
        stricter than serializing live response objects.
        """
        if self._responses:
            raise ValueError(f"cache {self.name!r} has undrained responses")
        return {
            "cycle": self._cycle,
            "accepts_this_cycle": dict(self._accepts_this_cycle),
            "banks": [bank.snapshot(encode_tag) for bank in self.banks],
            "perf": self.perf.snapshot(),
        }

    def restore(self, payload: dict, decode_tag: Callable[[Any], Any]) -> None:
        """Restore cache state from a :meth:`snapshot` payload."""
        self._cycle = payload["cycle"]
        self._accepts_this_cycle.clear()
        self._accepts_this_cycle.update(payload["accepts_this_cycle"])
        self._responses.clear()
        for bank, bank_payload in zip(self.banks, payload["banks"]):
            bank.restore(bank_payload, decode_tag)
        self.perf.restore(payload["perf"])

    # -- back-end: fills and responses -------------------------------------------------------

    def fill(self, line_address: int) -> None:
        """A fill for ``line_address`` returned from the lower level."""
        bank = self.banks[line_address % self.config.num_banks]
        replayed = bank.fill(line_address, self._cycle)
        for request in replayed:
            bank.schedule_response(request, self._cycle, False)
        self.perf.incr("fills")
        if self.trace is not None:
            self.trace.emit(
                self._cycle,
                self.trace_core,
                NO_WARP,
                self.trace_channel,
                "fill",
                {"bank": line_address % self.config.num_banks, "line": line_address},
            )

    def tick(self) -> list[CacheResponse]:
        """Advance one cycle; returns the responses completing this cycle."""
        self._cycle += 1
        if self._accepts_this_cycle:
            self._accepts_this_cycle.clear()
        responses: list[CacheResponse] = []
        for bank in self.banks:
            for bank_request, hit in bank.collect_responses(self._cycle):
                responses.append(
                    CacheResponse(
                        address=bank_request.address,
                        is_write=bank_request.is_write,
                        tag=bank_request.tag,
                        hit=hit,
                        cycle=self._cycle,
                    )
                )
        self._counters["cycles"] += 1
        return responses

    # -- fast-forward ------------------------------------------------------------------------

    def write_refusal_horizon(self) -> int | None:
        """Cycle before which every write-through is provably refused.

        A write needs a bank port — free again at the start of every cycle —
        plus a lower-level accept, so the only cross-cycle refusal guarantee
        comes from the lower port's shared queue being full.
        """
        return None if self.lower is None else self.lower.refusal_horizon()

    def next_response_cycle(self) -> int | None:
        """Earliest cycle any bank completes a response (``None`` when idle).

        Outstanding misses are *not* events here: their fills live in the
        lower level's queue (DRAM or the next cache's banks) and are
        reported by that level.
        """
        result: int | None = None
        for bank in self.banks:
            ready = bank.next_response_cycle()
            if ready is not None and (result is None or ready < result):
                result = ready
        return result

    def skip_idle(self, cycles: int) -> None:
        """Advance ``cycles`` provably idle cycles in one jump.

        Only valid when the caller proved (via :meth:`next_response_cycle`)
        that no response completes in the window and no requests arrive —
        each skipped :meth:`tick` would then only advance the clock and the
        ``cycles`` counter.
        """
        self._cycle += cycles
        self._counters["cycles"] += cycles

    # -- statistics -------------------------------------------------------------------------

    @property
    def bank_utilization(self) -> float:
        """Fraction of issued requests that did not experience a bank conflict.

        This matches the paper's Figure 19 definition: 100% means every
        request was accepted without a direct bank conflict, with remaining
        stalls attributable to input queues being full.
        """
        accepted = self.perf.get("accepted")
        conflicts = self.perf.get("bank_conflicts")
        if accepted + conflicts == 0:
            return 1.0
        return accepted / (accepted + conflicts)

    @property
    def hit_rate(self) -> float:
        hits = self.perf.get("read_hits") + self.perf.get("write_hits")
        misses = self.perf.get("read_misses") + self.perf.get("write_misses")
        if hits + misses == 0:
            return 0.0
        return hits / (hits + misses)

    @property
    def busy(self) -> bool:
        """True while any bank still has outstanding work."""
        return any(bank.busy for bank in self.banks)

    def counters(self) -> dict[str, int]:
        """Flat snapshot of the cache's performance counters."""
        return self.perf.as_dict()
