"""The non-blocking multi-banked cache (Figure 6).

``NonBlockingCache`` implements the front-end bank selector (including the
virtual multi-porting coalescing of same-line requests), the per-bank MSHRs,
response scheduling, and the back-end merger that hands completed
responses back to the requester.  Misses are forwarded through a *lower
port* — either the DRAM model or the next cache level — supplied by the
memory subsystem.

Requests arrive one at a time through :meth:`NonBlockingCache.send`
(instruction fetches, traffic from the level above) or, from the timing
core, a cycle's worth at a time through :meth:`NonBlockingCache.send_batch`:
*groups* of same-line *runs* ``(addresses, line, bank_id, ...)`` — the lanes
that share one bank access under virtual multi-porting — so the selector
arbitrates per run, not per lane, while charging every counter and trace
event per lane exactly as ``send`` would.

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
from collections.abc import Callable, Container, Iterable
from operator import itemgetter
from typing import Any

from repro.cache.bank import CacheBank
from repro.cache.mshr import CacheResponse, lane_record, record_lanes
from repro.common.clock import NEVER, DeviceClock
from repro.common.config import CacheConfig
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, COPY, Codec, Stateful
from repro.trace.bus import TraceBus
from repro.trace.events import NO_WARP


_bank_of = itemgetter(0)


def _snapshot_banks(
    cache: NonBlockingCache, banks: list[CacheBank], encode_tag: Callable[[Any], Any]
) -> list[dict]:
    payloads = [{**bank.snapshot(encode_tag), "pending": []} for bank in banks]
    for ready in sorted(cache._due):
        for bank_id, record in cache._due[ready]:
            payloads[bank_id]["pending"].extend(
                (ready, lane, record.hit) for lane in record_lanes(record, encode_tag)
            )
    return payloads


def _restore_banks(
    cache: NonBlockingCache, data: list[dict], banks: list[CacheBank], decode_tag: Callable
) -> list[CacheBank]:
    cache._due.clear()
    for bank, bank_data in zip(banks, data):
        bank.restore(bank_data, decode_tag)
        for ready, lane, hit in bank_data["pending"]:
            record = lane_record(lane, decode_tag, hit)
            # Already due (the ``hit_latency=0`` wire shape): next tick.
            record.cycle = ready = max(ready, cache.clock.now + 1)
            cache._due[ready].append((bank.bank_id, record))
    return banks


#: Every bank, each with its share of the due bucket as ``"pending"``
#: ``(ready cycle, lane, hit)`` — per lane, whatever the records; restore
#: books one singleton record per wire lane.
_BANKS = Codec(_snapshot_banks, _restore_banks)


class LowerPort:
    """Interface to the next memory level.

    ``request_fill`` asks for a full line (read); ``request_write`` forwards
    a write-through store.  Both return False when the lower level cannot
    accept more traffic this cycle.
    """

    #: The cache level behind this port (None: the port is the bottom, DRAM).
    lower_cache: NonBlockingCache | None = None

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
        skipped to :meth:`note_skipped_refusal` / :meth:`refuse_writes`,
        because the refusal-side counters below must still advance per attempt.
        """
        return False

    def note_skipped_refusal(self, count: int = 1) -> None:
        """Charge the counters ``count`` skipped (provably refused) requests
        that reach this port's full queue would have."""
        raise NotImplementedError

    def refuse_writes(
        self, cache: NonBlockingCache, runs: Iterable[tuple[int, ...]], lanes: int, cycle: int
    ) -> None:
        """The one rule for the write-throughs ``cache`` did not ask this port
        for because it was ``blocked(True)``: ``runs``, tuples of addresses on
        one ``cache`` line in lane order, ``lanes`` of which had a port there.

        A lane's outcome chain from a level down is a ``conflict`` where that
        level's bank has no port for the lane's line this cycle, which stops
        it, else the next level's chain, then that level's ``refusal``;
        DRAM's ``rejected`` at the bottom.  Refused lanes take no port, and a
        run is one line at every level (each lower line holds whole upper
        lines), so a chain is worked out once per ``cache`` line and charged
        as a count.  ``cache`` tops the chain (its counters are its caller's);
        traced levels append each lane's records at ``cycle``, deepest first.
        With nothing traced and no port taken below, ``runs`` goes unread.
        """
        if self.lower_cache is None and cache.trace is None:  # DRAM refuses every lane
            if lanes:
                self.note_skipped_refusal(lanes)
            return
        levels, port = [cache], self
        while port.lower_cache is not None:
            levels.append(port.lower_cache)
            port = port.lower_cache.lower
        below = levels[1:]
        bus = next((level.trace for level in below if level.trace is not None), None)
        ends = [0] * (len(levels) + 1)  # lanes per chain end: a conflict there, or rejected
        if bus is None and cache.trace is None and not any(
            level._accepts_this_cycle for level in below
        ):
            ends[-1] = lanes  # every chain goes the whole way down:
            runs = ()  # no line matters
        chains: dict[int, tuple[int, list[Any]]] = {}
        for addresses in runs:
            count = len(addresses)
            line = addresses[0] // cache._line_size
            chain = chains.get(line)
            if chain is None:
                lines = [addresses[0] // level._line_size for level in levels]
                depth = len(levels)
                for index, (level, lower_line) in enumerate(zip(levels, lines)):
                    taken = level._accepts_this_cycle.get(lower_line % level._num_banks)
                    if taken is not None and (
                        taken[1] >= level._num_ports or taken[0] != lower_line
                    ):
                        depth = index
                        break
                records = [
                    (cycle, level.trace_core, NO_WARP, level.trace_channel,
                     "conflict" if index == depth else "refusal",
                     level.trace_payload(lower_line, lower_line % level._num_banks, True))
                    for index, (level, lower_line) in enumerate(zip(levels[: depth + 1], lines))
                    if level.trace is not None
                ][::-1]  # deepest first
                chain = chains[line] = (depth, records)
            depth, records = chain
            ends[depth] += count
            if bus is not None:
                bus.emit_pattern(records, count)
            elif records:  # ``cache``'s own alone: through its receipt
                cache._trace_attempts(
                    records[0][4], line, line % cache._num_banks, True, count, cycle=cycle
                )
        for index, level in enumerate(below, 1):
            conflicts, refusals = ends[index], sum(ends[index + 1 :])
            if conflicts + refusals:
                level._charge((conflicts + refusals, conflicts, 0, refusals, 0, 0, 0, 0, 0))
        if ends[-1]:
            port.note_skipped_refusal(ends[-1])


class RequestGroup:
    """Runs still ``to_send`` under one ``tag`` and the lanes accepted so far
    (``outstanding``): what :meth:`NonBlockingCache.send_batch` takes."""

    __slots__ = ("to_send", "tag", "outstanding")

    def __init__(self, to_send: list[tuple[Any, ...]], tag: Any = None):
        self.to_send, self.tag, self.outstanding = to_send, tag, 0


class Receipt:
    """One pass's ``charges`` (tallies as :meth:`NonBlockingCache._charge` unpacks
    them), trace ``events`` (``[kind, payload, count]``), accepts ``taken`` —
    ``(group, index, lanes, hit, tail)`` for a read from the head of a run left
    longer, now ``group.to_send[index]``, its conflicting rest ``events[tail]``,
    else None — and, once kept for a repeat, ``tally`` and port map ``accepts``."""

    __slots__ = ("charges", "events", "taken", "tally", "accepts")

    def __init__(self) -> None:
        self.charges, self.events, self.taken = [], [], []


class NonBlockingCache(Stateful):
    """Multi-banked, non-blocking, virtually multi-ported cache."""

    STATE = {"_accepts_this_cycle": COPY, "banks": _BANKS, "perf": CHILD}
    #: Construction-time identity, wiring and hot-path prebinds (vxlint
    #: VX007): ``lower`` is topology, ``_line_size``/``_num_banks``/
    #: ``_num_ports``/``_response_delay`` derive from config and ``_counters``
    #: aliases ``perf._counters`` (serialized under the ``"perf"`` key); the
    #: due bucket travels per bank in ``banks``; the processor serializes the
    #: device clock; ``epoch``/``receipt`` serve the drain repeat, ``_payloads`` tracing;
    #: ``wake`` derives from the port map and the due bucket.
    SNAPSHOT_EXCLUDED = frozenset(
        {
            "name",
            "wake",
            "_payloads",
            "epoch",
            "receipt",
            "config",
            "clock",
            "lower",
            "_due",
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

    def __init__(
        self, name: str, config: CacheConfig, lower: LowerPort | None = None,
        trace_channel: str = "", trace_core: int = -1,
    ):
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
        self.trace_channel = trace_channel
        self.trace_core = trace_core
        self._payloads: dict[tuple[int, int, bool | None, bool], dict[str, Any]] = {}
        # Per-cycle bank selector state: bank -> (first line address, accept count).
        self._accepts_this_cycle: dict[int, tuple[int, int]] = {}
        # The due bucket: ready cycle -> [(bank id, record), ...] in schedule
        # order.  A ``hit_latency=0`` response still arrives on the next tick.
        self._due: defaultdict[int, list[tuple[int, CacheResponse]]] = defaultdict(list)
        #: No :meth:`tick` before this cycle has work (its callers skip those):
        #: the earliest due bucket, or the next cycle once a port is taken.
        self.wake = 0
        self._response_delay = max(config.hit_latency, 1)
        # Hot-path bindings: the send paths run once per request *attempt*
        # (the cycle-level core retries refusals every cycle), so the
        # per-attempt constants and the raw counter dict are prebound.
        self._line_size = config.line_size
        self._num_banks = config.num_banks
        self._num_ports = config.num_ports
        self._counters = self.perf._counters
        #: Moves with what decides a read outside the cycle's port map: a
        #: fill (install, evict, MSHR release), a new MSHR entry, a restore.
        self.epoch = 0
        self.receipt: Receipt | None = None  # set for one pass that may repeat

    def after_restore(self) -> None:
        self.epoch += 1
        self.wake = 0

    # -- address helpers ----------------------------------------------------------------

    def line_address(self, address: int) -> int:
        return address // self.config.line_size

    # -- front-end: bank selector ----------------------------------------------------------

    def _trace_attempts(
        self, kind: str, line: int, bank_id: int, is_write: bool, count: int = 1,
        merge: bool = False, cycle: int | None = None,
    ) -> None:
        """Emit ``count`` per-attempt events of one outcome (at ``cycle``, by
        default now), kept in the open :class:`Receipt` too.

        Tracing-on only: every caller guards on ``self.trace``.  One event
        per lane, exactly as a lane-by-lane pass would emit them; the lanes
        of a run share line, bank and outcome, so they are one ``emit``.
        """
        payload = self.trace_payload(line, bank_id, is_write, merge)
        self.trace.emit(
            self.clock.now if cycle is None else cycle, self.trace_core, NO_WARP,
            self.trace_channel, kind, payload, count,
        )
        if self.receipt is not None:
            self.receipt.events.append([kind, payload, count])

    def trace_payload(
        self, line: int, bank_id: int, is_write: bool | None, merge: bool = False
    ) -> dict[str, Any]:
        """The one payload object of every event on ``(line, bank_id, is_write,
        merge)`` (``is_write=None``: a fill's), interned per cache while tracing;
        the table restarts once it holds ``TraceBus.FLUSH_EVENTS`` entries."""
        key = (line, bank_id, is_write, merge)
        payloads = self._payloads
        payload = payloads.get(key)
        if payload is None:
            if len(payloads) >= TraceBus.FLUSH_EVENTS:
                payloads.clear()
            payload = payloads[key] = {"bank": bank_id, "line": line}
            if is_write is not None:
                payload["write"] = is_write
            if merge:
                payload["merge"] = True
        return payload

    def _schedule(self, bank_id: int, record: CacheResponse) -> None:
        """Park ``record`` in the due bucket, ``hit_latency`` cycles ahead."""
        record.cycle = ready = self.clock.now + self._response_delay
        self._due[ready].append((bank_id, record))

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
            self._take(bank, line, (address,), tag, True)
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
            if not self._take(bank, line, (address,), tag, False):
                counters["mshr_stalls"] += 1
                if trace is not None:
                    self._trace_attempts("mshr-stall", line, bank_id, False)
                return False
            if existing is None:
                self.epoch += 1
            counters["read_misses"] += 1
            if trace is not None:
                self._trace_attempts("miss", line, bank_id, False, 1, existing is not None)

        count = 0 if accepted is None else accepted[1]
        self._accepts_this_cycle[bank_id] = (line, count + 1)
        if self.wake > now:
            self.wake = now + 1
        counters["accepted"] += 1
        return True

    def _take(
        self, bank: CacheBank, line: int, addresses: tuple[int, ...], tag: Any, hit: bool
    ) -> bool:
        """The read accept of :meth:`send` and :meth:`send_batch`:
        one record for a run's lanes, touched and scheduled on a hit, else parked
        in the MSHR (False: a new entry found it full).  Counters: the caller's."""
        record = CacheResponse(addresses, False, tag, self.clock.now, hit)
        if not hit:
            return bank.mshr.allocate(line, record, len(addresses)) is not None
        bank.touch(line, len(addresses))
        self._schedule(bank.bank_id, record)
        return True

    def _charge(self, tally: tuple[int, ...] | list[int]) -> None:
        """Add a tally, laid out as unpacked here, to the counters (nonzero
        keys only, in :meth:`send`'s order) and to the receipt being recorded."""
        counters = self._counters
        (attempts, conflicts, mshr, memq, read_hits, read_misses,
         write_hits, write_misses, accepted) = tally
        if attempts:
            counters["attempts"] += attempts
        if conflicts:
            counters["bank_conflicts"] += conflicts
        if mshr:
            counters["mshr_stalls"] += mshr
        if memq:
            counters["memq_stalls"] += memq
        if read_hits:
            counters["read_hits"] += read_hits
        if read_misses:
            counters["read_misses"] += read_misses
        if write_hits:
            counters["write_hits"] += write_hits
        if write_misses:
            counters["write_misses"] += write_misses
        if accepted:
            counters["accepted"] += accepted
        if self.receipt is not None:
            self.receipt.charges.append(tally)

    def send_batch(
        self, groups: Iterable[Any], budget: int, is_write: bool,
        tallies: tuple[list[int], dict[int, int]] | None = None,
    ) -> int:
        """Present a cycle's outstanding requests in one call.

        ``groups`` are :class:`RequestGroup`-shaped, oldest first.  Each
        ``to_send`` is a list of *runs* ``(addresses, line, bank_id, ...)``:
        ``addresses`` is the tuple of byte addresses of consecutive lanes
        that share cache line ``line``, grouped once per memory instruction
        by the timing core instead of being rediscovered on every retry.
        Lanes are attempted strictly in order, group after group, while
        ``budget`` (the LSU's per-thread ports) lasts, with the outcomes of
        a loop of :meth:`send` calls — for *any* partition of the lane list
        into same-line runs and into groups; two adjacent runs may share a
        line.

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

        Returns the budget left.  Each group's ``outstanding`` grows by its
        accepted lanes and its ``to_send`` becomes the refused runs in lane
        order — refused lanes first, then the un-attempted tail once the
        budget ran out (a refused attempt consumes no budget).  A run none of
        whose lanes was accepted comes back as it is, a partly accepted one
        as a new run of the lanes that were not.  Counters are aggregated in
        locals and flushed once, bit-identical to :meth:`send` per attempt
        (``tests/test_cache.py`` holds both paths, the partition invariance
        and one call per group to it with property tests).  A recorded
        :class:`Receipt` takes the tally and the run accepts :meth:`repeat`
        needs.

        ``tallies``, the lanes per bank and per line of a lone write group
        (kept so), stop the walk where the lower blocks again: the runs not
        walked come back untouched, charged by :meth:`_blocked_writes`.
        """
        accepts = self._accepts_this_cycle
        banks = self.banks
        num_ports = self._num_ports
        num_banks = self._num_banks
        lower = self.lower
        cycle = self.clock.now
        trace = self.trace
        receipt = self.receipt
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
        for group in groups:
            requests = group.to_send
            if not requests:
                continue
            if budget <= 0:
                break  # the rest stay as they are
            refused: list[tuple[Any, ...]] = []
            group_accepted = 0
            for index, run in enumerate(requests):
                if budget <= 0:
                    refused.extend(requests[index:])
                    break
                if tallies is not None and lower_full:
                    rest = requests[index:]
                    lanes, conflicts = self._blocked_writes(*tallies, refused)
                    bank_conflicts += conflicts
                    memq_stalls += lanes - conflicts
                    if lanes > conflicts or trace is not None:
                        refusals = (run[0] for run in rest)  # read where lines matter
                        lower.refuse_writes(self, refusals, lanes - conflicts, cycle)
                    refused.extend(rest)
                    break
                if full_banks >= num_banks:
                    # Every bank has all its ports taken and refusals mutate
                    # nothing, so the rest of the batch conflicts (the port
                    # check precedes every other reason), charged in one pass.
                    # This is where a load retry wall lands most attempts.
                    for run in requests[index:]:
                        bank_conflicts += len(run[0])
                        if trace is not None:
                            self._trace_attempts(
                                "conflict", run[1], run[2], is_write, len(run[0])
                            )
                    refused.extend(requests[index:])
                    break
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
                            self._trace_attempts(
                                "conflict", line, bank_id, is_write, lanes - done
                            )
                        break
                    if is_write:
                        lower_refuses = lower_full
                    elif mshr.almost_full:
                        mshr_stalls += lanes - done
                        if trace is not None:
                            self._trace_attempts(
                                "mshr-stall", line, bank_id, False, lanes - done
                            )
                        break
                    else:
                        if hit is None:
                            hit = bank.probe(line)
                        lower_refuses = lower_full and not hit and mshr.lookup(line) is None
                    if lower_refuses:
                        if is_write:
                            memq_stalls += lanes - done
                            if trace is None:
                                blocked.append(addresses[done:])
                            else:  # its records and the chain's interleave per lane
                                rest = (addresses[done:],)
                                lower.refuse_writes(self, rest, lanes - done, cycle)
                        else:
                            skipped += lanes - done
                            if trace is not None:
                                self._trace_attempts(
                                    "refusal", line, bank_id, False, lanes - done
                                )
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
                                self._trace_attempts(
                                    "hit" if hit else "miss", line, bank_id, True
                                )
                        room = len(sent)  # what the lower level let through
                        if not room:
                            continue
                        if hit:
                            bank.touch(line, room)
                            write_hits += room
                        else:
                            write_misses += room
                        record = CacheResponse(sent, True, group.tag, cycle, hit)
                        self._schedule(bank_id, record)
                    else:
                        new_entry = not hit and mshr.lookup(line) is None
                        if new_entry:
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
                        if not self._take(
                            bank, line, addresses[done : done + room], group.tag, hit
                        ):
                            mshr_stalls += 1
                            kept += (addresses[done],)
                            done += 1
                            if trace is not None:
                                self._trace_attempts("mshr-stall", line, bank_id, False)
                            continue
                        if hit:
                            read_hits += room
                            if trace is not None:
                                self._trace_attempts("hit", line, bank_id, False, room)
                        else:
                            if new_entry:
                                self.epoch += 1
                            read_misses += room
                            if trace is not None:
                                self._trace_attempts(
                                    "miss", line, bank_id, False, room, not new_entry
                                )
                        done += room
                    if receipt is not None:  # None: an accept no repeat can redo
                        head = not is_write and done == room and lanes > 2 * room
                        receipt.taken.append(
                            (group, len(refused), room, hit, len(receipt.events)) if head else None
                        )
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
                if taken and tallies is not None:
                    bank_lanes, line_lanes = tallies
                    bank_lanes[bank_id] -= taken
                    line_lanes[line] -= taken
                    if not line_lanes[line]:
                        del line_lanes[line]
                group_accepted += taken
            group.to_send = refused
            group.outstanding += group_accepted
            accepted_count += group_accepted

        # Flush the aggregated counts; only-touched-when-nonzero keeps the
        # counter key sets identical to :meth:`send`'s.  Every attempted
        # lane has exactly one outcome, so attempts is their sum.
        if skipped:
            memq_stalls += skipped
            lower.note_skipped_refusal(skipped)
        if blocked:  # untraced: handed down once
            lower.refuse_writes(self, blocked, sum(map(len, blocked)), cycle)
        self._charge(
            (
                accepted_count + bank_conflicts + mshr_stalls + memq_stalls,
                bank_conflicts, mshr_stalls, memq_stalls,
                read_hits, read_misses, write_hits, write_misses, accepted_count,
            )
        )
        if accepted_count and self.wake > cycle:
            self.wake = cycle + 1
        return budget

    def repeat(self, receipt: Receipt, times: int = 1) -> bool:
        """Redo the pass that filled ``receipt`` in each of the ``times`` cycles
        up to now, whose passes would read the same (the requester's call):
        each run takes its lanes again, the port map returns, and the tally is
        charged with ``attempts``/``bank_conflicts`` less the lanes taken
        (shorter conflicting tails, in the events too), ``memq_stalls`` handed
        down; the events are emitted again.  False once a run keeps ≤ its take.
        Of a hit's records only those answered after now are built (the rest
        the requester already counted down); a merge parks one per cycle."""
        now = self.clock.now
        first = now - times + 1
        delay = self._response_delay
        answered = max(first, now - delay + 1)  # a hit taken from here on
        banks, due = self.banks, self._due
        taken = receipt.taken
        merges = []
        lanes_taken = 0
        again = True
        for group, index, lanes, hit, _tail in taken:
            run = group.to_send[index]
            addresses, line, bank_id = run[0], run[1], run[2]
            if hit:
                banks[bank_id].touch(line, lanes * times)
                for cycle in range(answered, now + 1):
                    offset = (cycle - first) * lanes
                    record = CacheResponse(
                        addresses[offset : offset + lanes], False, group.tag, cycle, True
                    )
                    record.cycle = ready = cycle + delay
                    due[ready].append((bank_id, record))
                group.outstanding += lanes * (now + 1 - answered)
            else:
                merges.append((addresses, line, banks[bank_id].mshr, group.tag, lanes))
                group.outstanding += lanes * times
            group.to_send[index] = (addresses[lanes * times :],) + run[1:]
            lanes_taken += lanes
            again = again and len(addresses) > (times + 1) * lanes
        for offset in range(times if merges else 0):  # cycle by cycle: heads may share an entry
            for addresses, line, mshr, tag, lanes in merges:
                lanes_now = addresses[offset * lanes : (offset + 1) * lanes]
                record = CacheResponse(lanes_now, False, tag, first + offset, False)
                mshr.allocate(line, record, lanes)
        events = receipt.events
        tally = charged = receipt.tally
        tally[0] -= lanes_taken * times
        tally[1] -= lanes_taken * times
        if times > 1:  # each earlier repeat's conflicting tails ``lanes_taken`` longer
            charged = [count * times for count in tally]
            charged[0] += lanes_taken * times * (times - 1) // 2
            charged[1] += lanes_taken * times * (times - 1) // 2
        self._accepts_this_cycle.update(receipt.accepts)
        if receipt.accepts and self.wake > now:
            self.wake = now + 1
        self._charge(charged)
        if tally[3]:
            self.lower.note_skipped_refusal(tally[3] * times)
        if events:
            emit, core, channel = self.trace.emit, self.trace_core, self.trace_channel
            for cycle in range(first, now + 1):
                for _group, _index, lanes, _hit, tail in taken:
                    events[tail][2] -= lanes
                for kind, payload, count in events:
                    emit(cycle, core, NO_WARP, channel, kind, payload, count)
        return again

    def charge_blocked_writes(
        self, bank_lanes: list[int], line_lanes: dict[int, int], runs: list[tuple[Any, ...]]
    ) -> bool:
        """Charge (and trace) write-through ``runs``, ``bank_lanes[bank]`` lanes per
        bank and ``line_lanes[line]`` per line, what :meth:`send_batch` does while
        ``lower.blocked(True)`` holds: :meth:`_blocked_writes`' rule.  False,
        charging nothing, where the lower is not blocked."""
        lower = self.lower
        if lower is None or not lower.blocked(True):
            return False
        lanes, conflicts = self._blocked_writes(bank_lanes, line_lanes)
        self._charge((lanes, conflicts, 0, lanes - conflicts, 0, 0, 0, 0, 0))
        if lanes > conflicts or self.trace is not None:
            refused = (run[0] for run in runs)  # read only where the lanes' lines matter
            lower.refuse_writes(self, refused, lanes - conflicts, self.clock.now)
        return True

    def _blocked_writes(
        self, bank_lanes: list[int], line_lanes: dict[int, int], queued: Iterable[Any] = ()
    ) -> tuple[int, int]:
        """``(lanes, conflicts)`` of the write-throughs a blocked lower is not
        asked for, from their tallies less the ``queued`` runs (already charged):
        a conflict where the lane's bank has no port for its line this cycle."""
        accepts = self._accepts_this_cycle
        num_ports = self._num_ports
        lanes = sum(bank_lanes)
        conflicts = 0
        for bank_id, (line, count) in accepts.items():
            conflicts += bank_lanes[bank_id]
            if count < num_ports:
                conflicts -= line_lanes.get(line, 0)
        for addresses, line, bank_id, *_ in queued:
            lanes -= len(addresses)
            taken = accepts.get(bank_id)
            if taken is not None and (taken[1] >= num_ports or taken[0] != line):
                conflicts -= len(addresses)
        return lanes, conflicts

    # -- back-end: fills and responses -------------------------------------------------------

    def fill(self, line_address: int) -> None:
        """A fill for ``line_address`` returned from the lower level.

        It arrives inside the device cycle, ahead of this level's own
        :meth:`tick`, and is booked to the cycle that just ended: a
        ``hit_latency`` of 1 hands the replays up in the same tick.
        """
        bank_id = line_address % self._num_banks
        arrived = self.clock.now - 1
        self.epoch += 1
        for record in self.banks[bank_id].fill(line_address):
            record.cycle = ready = arrived + self._response_delay
            self._due[ready].append((bank_id, record))
            if ready < self.wake:
                self.wake = ready
        self.perf.incr("fills")
        if self.trace is not None:
            self.trace.emit(
                arrived, self.trace_core, NO_WARP, self.trace_channel, "fill",
                self.trace_payload(line_address, bank_id, None),
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
        self.wake = min(self._due) if self._due else NEVER
        if due is None:
            return []
        if len(due) > 1:
            due.sort(key=_bank_of)
        return [record for _bank_id, record in due]

    # -- fast-forward ------------------------------------------------------------------------

    def next_response_cycle(self, passing: Container[Any] = ()) -> int | None:
        """Earliest cycle a response completes (``None`` when idle), passing over
        the records whose tag is in ``passing``.

        Outstanding misses are *not* events here: their fills live in the
        lower level's queue (DRAM or the next cache's due bucket) and are
        reported by that level.
        """
        if not passing:
            return min(self._due, default=None)
        return min(
            (
                ready for ready, records in self._due.items()
                if any(record.tag not in passing for _bank_id, record in records)
            ),
            default=None,
        )

    def skip_idle(self, replayed: bool = False) -> list[CacheResponse]:
        """The fast-forward's jump: clear the port map, wake at the next response,
        and (``replayed``: a drain repeat's window) pop what fell due inside."""
        self._accepts_this_cycle.clear()
        records = []
        if replayed:
            now = self.clock.now
            for ready in [ready for ready in self._due if ready <= now]:
                records += [record for _bank_id, record in self._due.pop(ready)]
        self.wake = min(self._due, default=NEVER)
        return records

    # -- statistics -------------------------------------------------------------------------

    @property
    def bank_utilization(self) -> float:
        """Fraction of bank *attempts* that met no bank conflict:
        ``accepted / (accepted + bank_conflicts)``.

        ``bank_conflicts`` counts every retry of a refused lane, so a lane
        refused on three cycles weighs three.  100% means no attempt was
        refused for a busy bank port; refusals for full input queues
        (``memq_stalls``, ``mshr_stalls``) do not count against it.
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
