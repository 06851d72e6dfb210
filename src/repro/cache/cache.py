"""The non-blocking multi-banked cache (Figure 6).

``NonBlockingCache`` implements the front-end bank selector (including the
virtual multi-porting coalescing of same-line requests), the per-bank MSHRs,
response scheduling, and the back-end merger that hands completed
responses back to the requester.  Misses are forwarded through a *lower
port* — either the DRAM model or the next cache level — supplied by the
memory subsystem.

Requests arrive one at a time through :meth:`NonBlockingCache.send`
(instruction fetches, traffic from the level above) or, from the timing
core, a warp at a time through :meth:`NonBlockingCache.send_batch` as
same-line *runs* ``(addresses, line, bank_id, ...)`` — the lanes that share
one bank access under virtual multi-porting — so the selector arbitrates
per run, not per lane, while charging every counter and trace event per
lane exactly as ``send`` would.

The answer travels per run too.  Lanes a bank accepts in one step share one
:class:`~repro.cache.bank.CacheResponse` record, built once and handed to
the requester as the same object.  Scheduled records wait in one per-cache
*due bucket* keyed by ready (device) cycle, so :meth:`NonBlockingCache.tick`
pops what is due now (nothing due costs one dict probe) instead of polling
every bank, and the fast-forward reads the earliest key.

The deadlock-avoidance rules from the paper are honoured at the acceptance
point: a request is refused (and retried by the requester next cycle) when
its bank's MSHR signals early-full or when the lower level cannot accept a
new fill, so neither the MSHR nor the memory request queue can be
overcommitted.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from operator import itemgetter
from typing import Any

from repro.cache.bank import CacheBank, CacheResponse
from repro.common.clock import DeviceClock
from repro.common.config import CacheConfig
from repro.common.perf import PerfCounters, hot_path
from repro.trace.events import NO_WARP


_bank_of = itemgetter(0)


class LowerPort:
    """Interface to the next memory level.

    ``request_fill`` asks for a full line (read); ``request_write`` forwards
    a write-through store.  Both return False when the lower level cannot
    accept more traffic this cycle.
    """

    def request_fill(self, cache: NonBlockingCache, line_address: int) -> bool:
        raise NotImplementedError

    def request_write(self, cache: NonBlockingCache, address: int) -> bool:
        raise NotImplementedError

    def blocked(self, is_write: bool) -> bool:
        """True when every further fill (write-through, for ``is_write``) is
        refused for the rest of this cycle; side-effect free.

        A shared queue that only fills during a drain blocks its port for
        both kinds once full.  The write side composes through cache levels —
        a write-through always needs the level below, so a cache level is
        write-blocked when its own lower port is — while a fill may hit
        there, so a cache level never blocks reads.  A blocked port is not
        asked: the cache's batch path skips the call and hands what it
        skipped to :meth:`note_skipped_refusal` / :meth:`note_blocked_writes`,
        because the refusal-side counters below must still advance per attempt.
        """
        return False

    def note_skipped_refusal(self, count: int = 1) -> None:
        """Charge the counters ``count`` skipped (provably refused) requests
        that reach this port's full queue would have."""
        raise NotImplementedError

    def note_blocked_writes(self, runs: list[tuple[int, ...]]) -> None:
        """Charge (and trace) what ``request_write`` would have for every
        address of ``runs``, in order, while ``blocked(True)`` holds — at
        every level the request would have visited.  Default: all of them
        reach this port's full queue."""
        self.note_skipped_refusal(sum(map(len, runs)))

    def refusal_horizon(self) -> int | None:
        """Cycle until which (exclusively) every request is provably refused.

        ``None`` means no guarantee.  Only a full shared queue can promise
        one: it refuses everything until its next in-order release, which
        lets the fast-forward treat a retry storm as event-free.
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
        }
    )

    #: Construction-time identity, wiring and hot-path prebinds (vxlint
    #: VX007): ``lower`` is topology, ``_line_size``/``_num_banks``/
    #: ``_num_ports``/``_response_delay`` derive from config and ``_counters``
    #: aliases ``perf._counters`` (serialized under the ``"perf"`` key); the
    #: processor serializes the device clock.
    SNAPSHOT_EXCLUDED = frozenset(
        {
            "name",
            "config",
            "clock",
            "lower",
            "_line_size",
            "_num_banks",
            "_num_ports",
            "_response_delay",
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
        self.clock = DeviceClock()  # private until the memory subsystem installs the device's
        self.banks = [CacheBank(bank_id, config) for bank_id in range(config.num_banks)]
        self.perf = PerfCounters(name)
        # Observability (attached by MemorySubsystem.attach_trace): one trace
        # event per request *attempt*, mirroring the refusal/hit/miss counter
        # charged for it, so reconciliation holds by construction.
        self.trace: Any = None
        self.trace_channel = ""
        self.trace_core = -1
        # Per-cycle bank selector state: bank -> (first line address, accept count).
        self._accepts_this_cycle: dict[int, tuple[int, int]] = {}
        # The due bucket: ready cycle -> [(bank id, record), ...] in schedule
        # order.  A ``hit_latency=0`` response still arrives on the next tick.
        self._due: defaultdict[int, list[tuple[int, CacheResponse]]] = defaultdict(list)
        self._response_delay = max(config.hit_latency, 1)
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

    def _trace_attempts(
        self, kind: str, line: int, bank_id: int, is_write: bool, count: int = 1,
        merge: bool = False,
    ) -> None:
        """Emit ``count`` per-attempt events of one outcome.

        Tracing-on only: every caller guards on ``self.trace`` (vxlint
        VX008).  One event per lane, exactly as a lane-by-lane pass would
        emit them; the lanes of a run share line, bank and outcome, so the
        payload is built once and shared by the run's events.
        """
        payload = {"bank": bank_id, "line": line, "write": is_write}
        if merge:
            payload["merge"] = True
        emit = self.trace.emit
        cycle, core, channel = self.clock.now, self.trace_core, self.trace_channel
        for _ in range(count):
            emit(cycle, core, NO_WARP, channel, kind, payload)

    @hot_path
    def _schedule(self, bank_id: int, record: CacheResponse) -> None:
        """Park ``record`` in the due bucket, ``hit_latency`` cycles ahead."""
        record.cycle = ready = self.clock.now + self._response_delay
        self._due[ready].append((bank_id, record))

    @hot_path
    def send(self, address: int, is_write: bool = False, tag: Any = None) -> bool:
        """Present one request to the bank selector.

        Returns True when the request is accepted this cycle; the response
        arrives later through :meth:`tick`.  A False return means the
        requester must retry next cycle (bank conflict, MSHR early-full, or
        lower-level backpressure).  No record is allocated per attempt: the
        one-address :class:`~repro.cache.bank.CacheResponse` is only built
        once the request is actually accepted into a bank.

        This is the single-request path (instruction fetches, L1→L2/L3
        traffic) and the per-request oracle :meth:`send_batch` is held to by
        the property tests in ``tests/test_cache.py``.
        """
        counters = self._counters
        counters["attempts"] += 1
        trace = self.trace
        now = self.clock.now
        line = address // self._line_size
        bank_id = line % self._num_banks
        accepted = self._accepts_this_cycle.get(bank_id)
        if accepted is not None:
            first_line, count = accepted
            if count >= self._num_ports or first_line != line:
                counters["bank_conflicts"] += 1
                if trace is not None:
                    self._trace_attempts("conflict", line, bank_id, is_write)
                return False
        bank = self.banks[bank_id]
        if not is_write and bank.mshr.almost_full:
            counters["mshr_stalls"] += 1
            if trace is not None:
                self._trace_attempts("mshr-stall", line, bank_id, False)
            return False

        hit = bank.probe(line)

        if is_write:
            # Write-through, no-allocate: the store is forwarded to the lower
            # level; a write hit also updates the cached line's LRU state.
            if self.lower is not None and not self.lower.request_write(self, address):
                counters["memq_stalls"] += 1
                if trace is not None:
                    self._trace_attempts("refusal", line, bank_id, True)
                return False
            if hit:
                bank.touch(line)
                counters["write_hits"] += 1
            else:
                counters["write_misses"] += 1
            if trace is not None:
                self._trace_attempts("hit" if hit else "miss", line, bank_id, True)
            self._schedule(bank_id, CacheResponse((address,), True, tag, now, hit))
        elif hit:
            bank.touch(line)
            self._schedule(bank_id, CacheResponse((address,), False, tag, now, True))
            counters["read_hits"] += 1
            if trace is not None:
                self._trace_attempts("hit", line, bank_id, False)
        else:
            existing = bank.mshr.lookup(line)
            if existing is None and self.lower is not None:
                if not self.lower.request_fill(self, line):
                    counters["memq_stalls"] += 1
                    if trace is not None:
                        self._trace_attempts("refusal", line, bank_id, False)
                    return False
            entry = bank.mshr.allocate(
                line, CacheResponse((address,), False, tag, now, False)
            )
            if entry is None:
                counters["mshr_stalls"] += 1
                if trace is not None:
                    self._trace_attempts("mshr-stall", line, bank_id, False)
                return False
            counters["read_misses"] += 1
            if trace is not None:
                self._trace_attempts("miss", line, bank_id, False, 1, existing is not None)

        count = 0 if accepted is None else accepted[1]
        self._accepts_this_cycle[bank_id] = (line, count + 1)
        counters["accepted"] += 1
        return True

    def _refuse_blocked_writes_traced(
        self, addresses: tuple[int, ...], line: int, bank_id: int
    ) -> None:
        """Tracing-on ``note_blocked_writes``: lane by lane, so the levels
        below emit a lane's events before this level's ``refusal`` — the
        order a chain of :meth:`send` calls has."""
        for address in addresses:
            self.lower.note_blocked_writes([(address,)])
            self._trace_attempts("refusal", line, bank_id, True)

    @hot_path
    def send_batch(
        self, requests: list[tuple[Any, ...]], budget: int, is_write: bool, tag: Any
    ) -> tuple[int, list[tuple[Any, ...]], int]:
        """Present a whole warp's outstanding requests in one call.

        ``requests`` is a list of *runs* ``(addresses, line, bank_id, ...)``:
        ``addresses`` is the tuple of byte addresses of consecutive lanes
        that share cache line ``line``, grouped once per memory instruction
        by the timing core instead of being rediscovered on every retry.
        Lanes are attempted strictly in order while ``budget`` (the LSU's
        per-thread ports) lasts, with the outcomes of a loop of
        :meth:`send` calls — for *any* partition of the lane list into
        same-line runs; two adjacent runs may share a line.

        Arbitration runs per run, not per lane.  A refusal mutates no cache,
        MSHR or port state, and within one call only an accept does, so
        every lane of a run behind a refused one gets the same answer for
        the same reason: a port-less bank (saturated, or held by another
        line), an early-full MSHR and a blocked lower port
        (:meth:`LowerPort.blocked`) each charge the run's remaining lanes in
        one step.

        Accepts are taken per run as well: the ``min(lanes left, budget,
        ports left)`` lanes that fit share one bank access — one ``touch``,
        one :class:`~repro.cache.bank.CacheResponse` record, counters
        ``+= n`` — for read hits and for merges into an existing MSHR entry.
        The lane that allocates a new MSHR entry goes alone (allocation can
        raise the early-full signal the lanes behind it must see), and
        write-throughs ask an unblocked lower level lane by lane (its own
        counters advance per call) while their accepted lanes still share one
        record.

        Returns ``(accepted, refused, budget)``.  ``refused`` preserves lane
        order — refused lanes first, then the un-attempted tail once the
        budget ran out; a refused attempt consumes no budget.  A run none of
        whose lanes was accepted comes back as it is, a partly accepted one
        as a new run of the lanes that were not.  Counters are
        aggregated in locals and flushed once, bit-identical to
        :meth:`send` per attempt (``tests/test_cache.py`` holds both paths,
        and the partition invariance, to it with property tests).
        """
        accepts = self._accepts_this_cycle
        banks = self.banks
        num_ports = self._num_ports
        num_banks = self._num_banks
        lower = self.lower
        cycle = self.clock.now
        trace = self.trace
        full_banks = 0
        for _first_line, count in accepts.values():
            if count >= num_ports:
                full_banks += 1
        accepted_count = bank_conflicts = mshr_stalls = memq_stalls = 0
        read_hits = read_misses = write_hits = write_misses = 0
        # Lower-level backpressure, asked for before the first lane and again
        # after a refusal: a blocked lower port refuses every further fill /
        # write-through this cycle, so those calls are skipped and their
        # refusal-side counters charged at the end.
        lower_full = lower is not None and lower.blocked(is_write)
        skipped = 0
        blocked: list[tuple[int, ...]] = []  # write-throughs the blocked lower never saw
        refused: list[tuple[Any, ...]] = []
        index = 0
        total = len(requests)
        while index < total:
            if budget <= 0:
                refused.extend(requests[index:])
                break
            if full_banks >= num_banks or (lower_full and is_write):
                # Nothing further can be accepted — every bank has all its
                # ports taken, or every write-through needs the full lower
                # queue — and refusals mutate nothing, so the rest of the
                # batch is classified in one pass: a port-less bank charges
                # conflicts (the port check precedes every other reason), the
                # rest charge lower refusals.  This is where a retry wall
                # lands nearly all of its attempts.
                for run in requests[index:]:
                    accepted = accepts.get(run[2])
                    if accepted is not None and (
                        accepted[1] >= num_ports or accepted[0] != run[1]
                    ):
                        bank_conflicts += len(run[0])
                        if trace is not None:
                            self._trace_attempts("conflict", run[1], run[2], is_write, len(run[0]))
                    else:
                        blocked.append(run[0])
                        if trace is not None:
                            self._refuse_blocked_writes_traced(run[0], run[1], run[2])
                refused.extend(requests[index:])
                break
            run = requests[index]
            index += 1
            addresses = run[0]
            line = run[1]
            bank_id = run[2]
            lanes = len(addresses)
            accepted = accepts.get(bank_id)
            if accepted is None:
                ports_left = num_ports
            elif accepted[0] == line:
                ports_left = num_ports - accepted[1]
            else:
                ports_left = 0  # another line owns the bank this cycle
            bank = banks[bank_id]
            mshr = bank.mshr
            hit = None  # tag probe: made once, and only if a lane gets that far
            kept: tuple[int, ...] = ()  # lanes refused one by one
            done = taken = 0  # lanes attempted / accepted
            while done < lanes and budget > 0:
                # Refusal reasons only an accept can change: every lane from
                # ``done`` on gets the same answer, charged in one step.
                if ports_left <= 0:
                    bank_conflicts += lanes - done
                    if trace is not None:
                        self._trace_attempts("conflict", line, bank_id, is_write, lanes - done)
                    break
                if is_write:
                    lower_refuses = lower_full
                elif mshr.almost_full:
                    mshr_stalls += lanes - done
                    if trace is not None:
                        self._trace_attempts("mshr-stall", line, bank_id, False, lanes - done)
                    break
                else:
                    if hit is None:
                        hit = bank.probe(line)
                    lower_refuses = lower_full and not hit and mshr.lookup(line) is None
                if lower_refuses:
                    if is_write:
                        blocked.append(addresses[done:])
                        if trace is not None:
                            self._refuse_blocked_writes_traced(addresses[done:], line, bank_id)
                    else:
                        skipped += lanes - done
                        if trace is not None:
                            self._trace_attempts("refusal", line, bank_id, False, lanes - done)
                    break
                # Accepts are taken in bulk: as many lanes as the run, the
                # LSU budget and the bank's ports leave room for share one
                # bank access and one response record.
                room = min(lanes - done, budget, ports_left)
                if is_write:
                    # Every write-through is its own lower-level request, so
                    # the lower is asked lane by lane; a refusal leaves a gap,
                    # one that leaves the lower blocked ends the stretch.
                    sent: tuple[int, ...] = ()
                    while done < lanes and len(sent) < room and not lower_full:
                        address = addresses[done]
                        done += 1
                        if lower is not None and not lower.request_write(self, address):
                            lower_full = lower.blocked(True)
                            memq_stalls += 1
                            kept += (address,)
                            if trace is not None:
                                self._trace_attempts("refusal", line, bank_id, True)
                            continue
                        if hit is None:
                            hit = bank.probe(line)
                        sent += (address,)
                        if trace is not None:
                            self._trace_attempts("hit" if hit else "miss", line, bank_id, True)
                    room = len(sent)  # what the lower level let through
                    if not room:
                        continue
                    if hit:
                        bank.touch(line, room)
                        write_hits += room
                    else:
                        write_misses += room
                    self._schedule(bank_id, CacheResponse(sent, True, tag, cycle, hit))
                elif hit:
                    bank.touch(line, room)
                    self._schedule(
                        bank_id,
                        CacheResponse(addresses[done : done + room], False, tag, cycle, True),
                    )
                    read_hits += room
                    if trace is not None:
                        self._trace_attempts("hit", line, bank_id, False, room)
                    done += room
                else:
                    merged = mshr.lookup(line) is not None
                    if not merged:
                        # The lane that allocates the entry goes alone: it can
                        # raise ``almost_full``, which the lanes behind it —
                        # merges included — must see before they are taken.
                        room = 1
                        if lower is not None and not lower.request_fill(self, line):
                            lower_full = lower.blocked(False)
                            memq_stalls += 1
                            kept += (addresses[done],)
                            done += 1
                            if trace is not None:
                                self._trace_attempts("refusal", line, bank_id, False)
                            continue
                    record = CacheResponse(addresses[done : done + room], False, tag, cycle, False)
                    if mshr.allocate(line, record, room) is None:
                        mshr_stalls += 1
                        kept += (addresses[done],)
                        done += 1
                        if trace is not None:
                            self._trace_attempts("mshr-stall", line, bank_id, False)
                        continue
                    read_misses += room
                    if trace is not None:
                        self._trace_attempts("miss", line, bank_id, False, room, merged)
                    done += room
                taken += room
                budget -= room
                ports_left -= room
                accepts[bank_id] = (line, num_ports - ports_left)
                if ports_left <= 0:
                    full_banks += 1
            if not taken:
                refused.append(run)  # goes back as it came
            elif taken < lanes:
                refused.append((kept + addresses[done:],) + run[1:])
            accepted_count += taken

        # Flush the aggregated counts; only-touched-when-nonzero keeps the
        # counter key sets identical to :meth:`send`'s.  Every attempted
        # lane has exactly one outcome, so attempts is their sum.
        if skipped:
            memq_stalls += skipped
            lower.note_skipped_refusal(skipped)
        if blocked:
            memq_stalls += sum(map(len, blocked))
            if trace is None:  # traced: already handed over lane by lane
                lower.note_blocked_writes(blocked)
        counters = self._counters
        attempts = accepted_count + bank_conflicts + mshr_stalls + memq_stalls
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
        """Serialize per-cycle accept state and every bank.

        ``encode_tag`` maps request tags to plain data (lower-level fill
        tags carry live cache references; the memory subsystem encodes them
        by cache name).
        """
        due: list[list[tuple[int, CacheResponse]]] = [[] for _ in self.banks]
        for ready in sorted(self._due):
            for bank_id, record in self._due[ready]:
                due[bank_id].append((ready, record))
        return {
            "accepts_this_cycle": dict(self._accepts_this_cycle),
            "banks": [bank.snapshot(encode_tag, due[bank.bank_id]) for bank in self.banks],
            "perf": self.perf.snapshot(),
        }

    def restore(self, payload: dict, decode_tag: Callable[[Any], Any]) -> None:
        """Restore cache state from a :meth:`snapshot` payload."""
        self._accepts_this_cycle.clear()
        self._accepts_this_cycle.update(payload["accepts_this_cycle"])
        self._due.clear()
        for bank, bank_payload in zip(self.banks, payload["banks"]):
            for ready, record in bank.restore(bank_payload, decode_tag):
                # Already due (the ``hit_latency=0`` wire shape): next tick.
                record.cycle = ready = max(ready, self.clock.now + 1)
                self._due[ready].append((bank.bank_id, record))
        self.perf.restore(payload["perf"])

    # -- back-end: fills and responses -------------------------------------------------------

    def fill(self, line_address: int) -> None:
        """A fill for ``line_address`` returned from the lower level.

        It arrives inside the device cycle, ahead of this level's own
        :meth:`tick`, and is booked to the cycle that just ended: a
        ``hit_latency`` of 1 hands the replays up in the same tick.
        """
        bank_id = line_address % self._num_banks
        arrived = self.clock.now - 1
        for record in self.banks[bank_id].fill(line_address):
            record.cycle = ready = arrived + self._response_delay
            self._due[ready].append((bank_id, record))
        self.perf.incr("fills")
        if self.trace is not None:
            self.trace.emit(
                arrived,
                self.trace_core,
                NO_WARP,
                self.trace_channel,
                "fill",
                {"bank": line_address % self.config.num_banks, "line": line_address},
            )

    def tick(self) -> list[CacheResponse]:
        """Free the bank ports; returns the records completing this cycle.

        Bank-major, schedule order within a bank.  Everything due at one
        cycle was scheduled during one memory-side cycle (the core's sends,
        then the next tick's fill replays), so a stable sort of the bucket
        by bank id is that order.
        """
        if self._accepts_this_cycle:
            self._accepts_this_cycle.clear()
        due = self._due.pop(self.clock.now, None)
        if due is None:
            return []
        if len(due) > 1:
            due.sort(key=_bank_of)
        return [record for _bank_id, record in due]

    # -- fast-forward ------------------------------------------------------------------------

    def write_refusal_horizon(self) -> int | None:
        """Cycle before which every write-through is provably refused.

        A write needs a bank port — free again at the start of every cycle —
        plus a lower-level accept, so the only cross-cycle refusal guarantee
        comes from the lower port's shared queue being full.
        """
        return None if self.lower is None else self.lower.refusal_horizon()

    def next_response_cycle(self) -> int | None:
        """Earliest cycle a response completes (``None`` when idle).

        Outstanding misses are *not* events here: their fills live in the
        lower level's queue (DRAM or the next cache's due bucket) and are
        reported by that level.
        """
        return min(self._due, default=None)

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
        """True while a response is scheduled or any bank has outstanding misses."""
        return bool(self._due) or any(len(bank.mshr) for bank in self.banks)

    def counters(self) -> dict[str, int]:
        """Flat snapshot of the cache's performance counters."""
        return self.perf.as_dict()
