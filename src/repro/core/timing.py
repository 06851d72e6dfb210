"""The cycle-level (SIMX) core model.

``TimingCore`` wraps the functional :class:`~repro.core.core.SimtCore` —
which provides the architectural state and the instruction semantics — with
the timing behaviour of the Vortex microarchitecture:

* the wavefront scheduler picks one warp per cycle (two-level policy),
* the core is in-order and single-issue; register dependencies are enforced
  by the scoreboard,
* execution units have per-class latencies (ALU, MUL, DIV, FPU, FDIV/FSQRT,
  SFU),
* loads, stores and texture fetches travel through the non-blocking
  multi-banked data cache (or the shared-memory scratchpad), with the
  per-thread parallelism, bank conflicts and MSHR behaviour of section 4.3,
* instruction fetches warm the instruction cache at line granularity,
* taken branches pay a front-end redirect penalty.

This is intentionally an *instruction-granular* timing model in the style
of the paper's own SIMX driver rather than an RTL-faithful pipeline; the
design-space trends the paper reports (Figures 14, 18, 19, 20, 21) emerge
from the scheduler, scoreboard, latencies and the cache/memory system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, NamedTuple

from repro.cache.cache import CacheResponse, NonBlockingCache, Receipt, RequestGroup
from repro.cache.sharedmem import SHARED_MEM_BASE, SharedMemory
from repro.common.clock import NEVER
from repro.common.config import VortexConfig
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, COPY, SORTED_SET, VALUE, Codec, Stateful
from repro.core.core import SimtCore, VectorSimtCore
from repro.core.scheduler import WavefrontScheduler
from repro.core.scoreboard import Scoreboard
from repro.isa.instructions import ExecUnit
from repro.trace.bus import TraceBus
from repro.trace.events import NO_WARP

#: Extra cycles a warp waits after a taken branch (front-end redirect).
BRANCH_PENALTY = 2

#: The payloads of the two ``scheduler/stall`` reasons (read-only, as every
#: emitted payload is).
_IBUFFER_STALL = {"reason": "ibuffer"}
_SCOREBOARD_STALL = {"reason": "scoreboard"}

#: What :meth:`TimingCore.tick` reports: no warp issued; a warp issued; a warp
#: issued an instruction that neither redirects nor is SFU, so it is ready,
#: active, off any barrier and fetched next cycle (an event at ``now + 1``).
NOT_ISSUED, ISSUED, READY_NEXT = 0, 1, 2


class _IssueRecord(NamedTuple):
    """What the issue stage reads of the instruction at one PC."""

    registers: int  # scoreboard mask of the registers it reads and writes
    timed: bool  # memory or ``tex``, SFU, or a multi-cycle writeback
    instr: Any
    unit: str
    latency: int
    kind: str | None  # "load", "store", "tex" or None


@dataclass
class _PendingMemOp:
    """A memory (or texture) instruction waiting for its cache responses.

    ``to_send`` holds the outstanding requests as *runs*
    ``(addresses, line, bank_id, to_smem)`` — the byte addresses of
    consecutive lanes that share a cache line, grouped (with the cache
    geometry) once at charge time, so retry cycles arbitrate per run and
    never re-derive either.  A request group of ``NonBlockingCache.send_batch``.
    """

    op_id: int
    warp_id: int
    rd: int
    rd_float: bool
    writes_rd: bool
    kind: str  # "load" | "tex"
    to_send: list[tuple[Any, ...]] = field(default_factory=list)
    outstanding: int = 0
    extra_latency: int = 0
    #: The tag the op's responses come back with.
    tag: tuple[str, int] = field(init=False)

    #: The fields travel in the core's ``_PENDING_OPS`` codec, all but the
    #: derived ``tag`` (vxlint VX007).
    STATE: ClassVar[dict[str, Codec]] = {}
    SNAPSHOT_EXCLUDED: ClassVar[frozenset[str]] = frozenset({"tag"})

    def __post_init__(self) -> None:
        self.tag = ("op", self.op_id)


def _lanes_of(runs: list[tuple[Any, ...]]) -> list[list[Any]]:
    """Runs flattened to one ``[address, line, bank, to_smem]`` per lane.

    The partition into runs is not architectural state — any same-line
    grouping of the lane list behaves identically — so the wire format stays
    per lane and restore regroups the addresses with
    :meth:`TimingCore._request_entries`, merging adjacent same-line lanes
    whichever instruction they came from.
    """
    return [
        [address, line, bank, to_smem]
        for addresses, line, bank, to_smem in runs
        for address in addresses
    ]


def _runs_of(core: TimingCore, lanes: list[list[Any]]) -> list[tuple[Any, ...]]:
    return core._request_entries([lane[0] for lane in lanes])


def _restore_pending_ops(
    core: TimingCore, data: list[dict], ops: dict[int, _PendingMemOp], refs: object
) -> dict[int, _PendingMemOp]:
    restored = (_PendingMemOp(**dict(op, to_send=_runs_of(core, op["to_send"]))) for op in data)
    return {op.op_id: op for op in restored}


#: Outstanding data requests, per lane (the store queue, fire-and-forget).
_STORE_QUEUE = Codec(
    lambda core, runs, refs: _lanes_of(runs),
    lambda core, lanes, runs, refs: _runs_of(core, lanes),
)
def _op_payload(op: _PendingMemOp) -> dict:
    payload = {**vars(op), "to_send": _lanes_of(op.to_send)}
    del payload["tag"]
    return payload


#: Waiting loads as an ordered list: op ids are allocated monotonically, so
#: list order reproduces the oldest-first drain order exactly.
_PENDING_OPS = Codec(
    lambda core, ops, refs: [_op_payload(op) for op in ops.values()], _restore_pending_ops
)
#: A list of tuples, as lists.
_ROWS = Codec(
    lambda core, rows, refs: [list(row) for row in rows],
    lambda core, data, rows, refs: [tuple(row) for row in data],
)


class TimingCore(Stateful):
    """Cycle-level model of one Vortex core.

    The embedded functional core ``func`` executes each issued instruction
    through the warp's cached lane plan
    (:meth:`VectorSimtCore.step_warp_timing`), the same plan ``funcsim``
    runs.  The timing model — scheduler, scoreboard, latencies, caches,
    MSHRs — charges the decoded instruction, the active lanes at issue and
    the ``(taken, addresses)`` pair the step returns, so any
    :class:`SimtCore` whose ``step_warp_timing`` returns the same pair
    yields bit-identical cycles, IPC and performance counters (the tests'
    per-thread oracle is one).
    """

    #: Functional core to instantiate as ``func``; the tests' per-thread
    #: oracle substitutes :class:`SimtCore`.
    func_cls: type[SimtCore] = VectorSimtCore

    #: The timing state plus the embedded functional core.  The instruction
    #: and data caches are referenced, not owned: the memory subsystem
    #: serializes them.
    STATE = {
        "func": CHILD,
        "scheduler": CHILD,
        "scoreboard": CHILD,
        "smem": CHILD,
        "perf": CHILD,
        "_warp_ready_cycle": COPY,
        "_writebacks": _ROWS,
        "_pending_ops": _PENDING_OPS,
        "_store_queue": _STORE_QUEUE,
        "_next_op_id": VALUE,
        "_warm_ilines": SORTED_SET,
        "_pending_ifetch": COPY,
        "_ifetch_to_send": _ROWS,
    }
    #: Attributes deliberately outside the snapshot (vxlint VX007):
    #: configuration identity, constructor-derived lookup tables, references
    #: owned and serialized by the memory subsystem (``clock``: the
    #: processor), the per-PC issue records (a pure function of the decode,
    #: rebuilt lazily), the ``perf`` alias ``_counters``, the trace payloads, and
    #: what :meth:`after_restore` invalidates or rebuilds (the drain repeat's too).
    SNAPSHOT_EXCLUDED = frozenset(
        {
            "core_id",
            "config",
            "clock",
            "icache",
            "dcache",
            "_dram",
            "trace",
            "_counters",
            "_unit_latency",
            "_masks_valid_until",
            "_smem_ops",
            "_store_smem_lanes",
            "_store_bank_lanes",
            "_store_line_lanes",
            "_issue_records",
            "_drain_epoch",
            "_repeat",
            "_dcache_line_size",
            "_dcache_num_banks",
            "_icache_line_size",
            "_pc_payloads",
            "_register_payloads",
        }
    )

    def __init__(
        self,
        core_id: int,
        config: VortexConfig,
        memory: Any,
        memsys: Any,
        processor: Any = None,
        trace: Any = None,
    ):
        self.core_id = core_id
        self.config = config
        self.clock = memsys.clock  # the device's: read, never advanced here
        self.func = self.func_cls(core_id, config, memory, processor=processor)
        self.scheduler = WavefrontScheduler(
            config.core.num_warps, policy=config.core.scheduler_policy
        )
        self.scoreboard = Scoreboard(config.core.num_warps)
        self.icache: NonBlockingCache = memsys.icache(core_id)
        self.dcache: NonBlockingCache = memsys.dcache(core_id)
        self.smem = SharedMemory(core_id, config.core.shared_mem_size)
        self.smem.clock = self.func.csr.clock = self.clock
        self.perf = PerfCounters(f"timing_core{core_id}")
        self._counters = self.perf._counters  # prebound: charged several times a tick
        #: The trace bus (``None`` when tracing is off — every emission site
        #: guards on that, keeping the hot path allocation-free).
        self.trace = trace
        if trace is not None and trace.wants("smem"):
            self.smem.trace = trace
        if trace is not None and trace.wants("barrier"):
            self.func.barriers.on_event = self._trace_barrier
        # The interned ``{"pc"}`` and ``{"register", "float"}`` trace payloads.
        self._pc_payloads: dict[int, dict[str, int]] = {}
        self._register_payloads: dict[tuple[int, bool], dict[str, Any]] = {}

        core_cfg = config.core
        self._unit_latency = {
            ExecUnit.ALU: 1,
            ExecUnit.SFU: 1,
            ExecUnit.MUL: core_cfg.imul_latency,
            ExecUnit.DIV: core_cfg.idiv_latency,
            ExecUnit.FPU: core_cfg.fpu_latency,
            ExecUnit.FDIV: core_cfg.fdiv_latency,
        }

        # Timing state.
        self._warp_ready_cycle: dict[int, int] = {w: 0 for w in range(core_cfg.num_warps)}
        self._writebacks: list[tuple[int, int, int, bool]] = []  # (cycle, warp, rd, float)
        self._pending_ops: dict[int, _PendingMemOp] = {}
        self._store_queue: list[tuple[Any, ...]] = []  # fire-and-forget stores
        self._next_op_id = 0
        self._warm_ilines: set[int] = set()
        self._pending_ifetch: dict[int, int] = {}  # warp_id -> line address awaited
        self._ifetch_to_send: list[tuple[int, int]] = []  # (warp_id, line byte address)
        # The scheduler masks are a function of (warp.active, warp.at_barrier,
        # ready_cycle > cycle, warp in _pending_ifetch), kept by events: they
        # hold below ``_masks_valid_until`` — the earliest future ready cycle
        # at the last recompute — and whoever moves another input zeroes it
        # (derived, never serialized: reset/restore zero it too).
        self._masks_valid_until = 0
        # PC -> issue record (:meth:`_issue_record`; dropped with the decodes).
        self._issue_records: dict[int, _IssueRecord] = {}
        # Cache geometry prebound for the request precompute and the
        # fast-forward stall probe.
        self._dcache_line_size = self.dcache.config.line_size
        self._dcache_num_banks = self.dcache.config.num_banks
        self._icache_line_size = config.icache.line_size
        # The drain repeat: the DRAM behind the D$ (None under an L2: never
        # armed), an epoch of the queues a drain reads, and the
        # ``(key, receipt)`` memo.
        self._dram = getattr(self.dcache.lower, "dram", None)
        self._drain_epoch = 0
        self._repeat: tuple[tuple[int, int, bool], Receipt] | None = None
        # Derived from the queues: the pending ops with a scratchpad run (the
        # drain routes them per destination) and the store-queue tallies.
        self._smem_ops: set[int] = set()
        self._recount_stores()

    # -- lifecycle ---------------------------------------------------------------------

    def reset(self, entry_pc: int) -> None:
        """Reset architectural and timing state; warp 0 starts at ``entry_pc``."""
        self.func.reset(entry_pc)
        self.scoreboard.clear()
        self._writebacks.clear()
        self._pending_ops.clear()
        self._store_queue.clear()
        self._warm_ilines.clear()
        self._pending_ifetch.clear()
        self._ifetch_to_send.clear()
        for warp_id in self._warp_ready_cycle:
            self._warp_ready_cycle[warp_id] = 0
        self.after_restore()

    def invalidate_caches(self) -> None:
        """Drop decode-derived caches (a new program image was loaded)."""
        self.func.emulator.invalidate_decode_cache()
        self._issue_records.clear()

    def after_restore(self) -> None:
        """Drop the issue records, the mask horizon (the functional core's
        restore dropped the decode they derive from) and the drain memo;
        rebuild what is derived from the queues.  A reset ends here too."""
        self._issue_records.clear()
        self._masks_valid_until = 0
        self._drain_epoch += 1
        self._repeat = None
        self._smem_ops = {
            op.op_id for op in self._pending_ops.values() if any(r[3] for r in op.to_send)
        }
        self._recount_stores()

    def _recount_stores(self) -> None:
        """Count the store queue's lanes: to the scratchpad, and to the data
        cache per bank and per line (the store paths keep them so)."""
        self._store_smem_lanes = 0
        self._store_bank_lanes = [0] * self._dcache_num_banks
        self._store_line_lanes: dict[int, int] = {}
        self._tally_stores(self._store_queue)

    def _tally_stores(self, runs: list[tuple[Any, ...]], sign: int = 1) -> None:
        """Add (``sign`` -1: take away) the lanes of store ``runs``."""
        bank_lanes, line_lanes = self._store_bank_lanes, self._store_line_lanes
        for addresses, line, bank, to_smem in runs:
            lanes = sign * len(addresses)
            if to_smem:
                self._store_smem_lanes += lanes
            else:
                bank_lanes[bank] += lanes
                line_lanes[line] = line_lanes.get(line, 0) + lanes
                if not line_lanes[line]:
                    del line_lanes[line]

    # -- helpers -------------------------------------------------------------------------

    @property
    def warps(self) -> list[Any]:
        return self.func.warps

    @property
    def done(self) -> bool:
        """True when every warp terminated and all outstanding work drained."""
        return (
            not self._pending_ops
            and not self._writebacks
            and not self._store_queue
            and not self._ifetch_to_send
            and not self._pending_ifetch
            and self.func.done  # walks every warp: last
        )

    def invalidate_scheduler_masks(self) -> None:
        """A mask input moved outside this core's own tick (a global-barrier
        release by another core): recompute on the next tick."""
        self._masks_valid_until = 0

    def _sync_scheduler_masks(self) -> None:
        """Recompute the three scheduler masks and the cycle they hold until."""
        active_mask = stalled_mask = barrier_mask = 0
        cycle = self.clock.now
        valid_until = NEVER
        ready_cycles = self._warp_ready_cycle
        pending_ifetch = self._pending_ifetch
        for warp in self.func.warps:
            bit = 1 << warp.warp_id
            if warp.active:
                active_mask |= bit
            if warp.at_barrier:
                barrier_mask |= bit
            ready = ready_cycles[warp.warp_id]
            if ready > cycle:
                stalled_mask |= bit
                if ready < valid_until:
                    valid_until = ready
            elif warp.warp_id in pending_ifetch:
                stalled_mask |= bit
        self._masks_valid_until = valid_until
        self.scheduler.set_masks(active_mask, stalled_mask, barrier_mask)

    def _issue_record(self, pc: int) -> _IssueRecord:
        """The issue record of the instruction at ``pc``, built on its first
        issue (or stall probe) and kept until the decodes drop.  ``timed``:
        an untaken issue has a timing effect beyond readying its warp next
        cycle.  Raises what the fetch raises."""
        instr = self.func.emulator.fetch(pc)
        spec = instr.spec
        registers: list[tuple[int, bool]] = []
        if "rs1" in spec.syntax or spec.syntax and spec.syntax[-1] == "mem":
            registers.append((instr.rs1, spec.rs1_float))
        if "rs2" in spec.syntax:
            registers.append((instr.rs2, spec.rs2_float))
        if "rs3" in spec.syntax:
            registers.append((instr.rs3, spec.rs3_float))
        if spec.writes_rd:
            registers.append((instr.rd, spec.rd_float))
        unit = spec.unit
        latency = self._unit_latency.get(unit, 1)
        kind = "tex" if unit == ExecUnit.TEX else None
        if unit == ExecUnit.LSU:
            kind = "store" if spec.is_store else "load"
        timed = kind is not None or unit == ExecUnit.SFU or spec.writes_rd and latency > 1
        record = _IssueRecord(Scoreboard.mask_of(registers), timed, instr, unit, latency, kind)
        self._issue_records[pc] = record
        return record

    # -- per-cycle operation ----------------------------------------------------------------

    def tick(self) -> int:
        """Run the core's device cycle ``clock.now``: its I$, D$ and scratchpad
        tick first, each from its ``wake`` cycle on (the shared levels below
        ticked before the core).  Returns ``NOT_ISSUED``/``ISSUED``/``READY_NEXT``."""
        now = self.clock.now
        if self._writebacks:
            self._process_writebacks()
        icache, dcache, smem = self.icache, self.dcache, self.smem
        if icache.wake <= now:
            for response in icache.tick():  # an ifetch's: ("ifetch", warp, line)
                _, warp_id, line_address = response.tag
                self._warm_ilines.add(line_address)
                if self._pending_ifetch.get(warp_id) == line_address:
                    del self._pending_ifetch[warp_id]
                    self._masks_valid_until = 0
        if dcache.wake <= now:
            responses = dcache.tick()
            if responses:
                self._process_dcache_responses(responses)
        if smem.wake <= now:
            self._process_smem_responses(smem.tick())
        if self._ifetch_to_send or self._pending_ops or self._store_queue:
            self._drain_requests()

        if now >= self._masks_valid_until:
            self._sync_scheduler_masks()
        warp_id = self.scheduler.select()
        if warp_id is None:
            self._counters["idle_cycles"] += 1
            trace = self.trace
            if trace is not None:
                trace.emit(
                    now, self.core_id, NO_WARP, "scheduler", "idle", self._trace_mask_payload()
                )
            return NOT_ISSUED
        warp = self.func.warps[warp_id]
        if not (warp.active and not warp.at_barrier and warp.active_count):  # schedulable
            trace = self.trace
            if trace is not None:
                trace.emit(now, self.core_id, warp_id, "scheduler", "masked")
            return NOT_ISSUED
        return self._issue(warp)

    def _trace_mask_payload(self) -> dict[str, int]:
        """Scheduler-mask payload of an ``idle`` event (tracing-on only)."""
        scheduler = self.scheduler
        ifetch_mask = 0
        for warp_id in self._pending_ifetch:
            ifetch_mask |= 1 << warp_id
        return {
            "active": scheduler.active_mask,
            "stalled": scheduler.stalled_mask,
            "barrier": scheduler.barrier_mask,
            "ifetch": ifetch_mask,
        }

    def _pc_payload(self, pc: int) -> dict[str, int]:
        """The one ``{"pc": pc}`` object of this core's ``issue``/``redirect``
        events; the table restarts once it holds ``TraceBus.FLUSH_EVENTS``."""
        payloads = self._pc_payloads
        payload = payloads.get(pc)
        if payload is None:
            if len(payloads) >= TraceBus.FLUSH_EVENTS:
                payloads.clear()
            payload = payloads[pc] = {"pc": pc}
        return payload

    def _register_payload(self, rd: int, rd_float: bool) -> dict[str, Any]:
        """``{"register", "float"}`` of scoreboard events, interned as :meth:`_pc_payload`."""
        payloads = self._register_payloads
        payload = payloads.get((rd, rd_float))
        if payload is None:
            if len(payloads) >= TraceBus.FLUSH_EVENTS:
                payloads.clear()
            payload = payloads[rd, rd_float] = {"register": rd, "float": rd_float}
        return payload

    def _trace_barrier(
        self, barrier_id: int, expected: int, participant: Any, released: list[Any]
    ) -> None:
        """BarrierTable ``on_event`` hook (installed only when tracing)."""
        trace = self.trace
        if trace is None:  # pragma: no cover - hook installed only when tracing
            return
        trace.emit(
            self.clock.now,
            self.core_id,
            getattr(participant, "warp_id", NO_WARP),
            "barrier",
            "arrive",
            {"barrier": barrier_id, "expected": expected, "released": len(released)},
        )

    # -- completion paths --------------------------------------------------------------------

    def _process_writebacks(self) -> None:
        now = self.clock.now
        if min(self._writebacks)[0] > now:
            return  # nothing ready (entries lead with their cycle): no rebuild
        remaining = []
        trace = self.trace
        for ready_cycle, warp_id, rd, rd_float in self._writebacks:
            if ready_cycle <= now:
                self.scoreboard.release(warp_id, rd, rd_float)
                if trace is not None and (rd != 0 or rd_float):
                    trace.emit(
                        now, self.core_id, warp_id, "scoreboard", "release",
                        self._register_payload(rd, rd_float),
                    )
            else:
                remaining.append((ready_cycle, warp_id, rd, rd_float))
        self._writebacks = remaining

    def _process_dcache_responses(self, responses: list[CacheResponse]) -> None:
        """A load's or ``tex``'s responses carry its ``("op", op_id)``; a store's None."""
        for response in responses:
            tag = response.tag
            op = None if tag is None else self._pending_ops.get(tag[1])
            if op is not None:
                op.outstanding -= len(response.addresses)  # one record per accepted run
                self._maybe_complete_op(op)

    def _process_smem_responses(self, responses: list[Any]) -> None:
        for response in responses:
            tag = response.tag
            op = None if tag is None else self._pending_ops.get(tag[1])
            if op is not None:
                op.outstanding -= 1
                self._maybe_complete_op(op)

    def _maybe_complete_op(self, op: _PendingMemOp) -> None:
        if op.outstanding > 0 or op.to_send:
            return
        ready = self.clock.now + 1 + op.extra_latency
        if op.writes_rd:
            self._writebacks.append((ready, op.warp_id, op.rd, op.rd_float))
        del self._pending_ops[op.op_id]
        self._smem_ops.discard(op.op_id)
        self._counters["mem_ops_completed"] += 1
        trace = self.trace
        if trace is not None:
            trace.emit(
                self.clock.now, self.core_id, op.warp_id, "core", "commit",
                {"op": op.op_id, "kind": op.kind},
            )

    # -- request draining ----------------------------------------------------------------------

    def _drain_requests(self) -> None:
        """Send as many queued cache/scratchpad requests as accepted this cycle;
        or repeat the last pass (:meth:`_arm_repeat`) while nothing it read
        has changed: the two epochs, DRAM room, no ifetch, free D$ ports."""
        dcache = self.dcache
        memo = self._repeat
        if memo is not None:
            key, receipt = memo
            if (
                key == (dcache.epoch, self._drain_epoch, self._dram.room > 0)
                and not self._ifetch_to_send
                and not dcache._accepts_this_cycle
            ):
                if not dcache.repeat(receipt):
                    self._repeat = None
                return
            self._repeat = None
        receipt = None
        dram = self._dram
        if dram is not None and not (
            dcache._accepts_this_cycle or self._smem_ops or self._store_smem_lanes
        ):  # a pass that starts clean records what a repeat needs
            receipt = dcache.receipt = Receipt()
            start = (dcache.epoch, dram.room)
        # Instruction-cache fills first (front end priority).
        if self._ifetch_to_send:
            still_waiting: list[tuple[int, int]] = []
            for warp_id, line_byte_address in self._ifetch_to_send:
                tag = ("ifetch", warp_id, line_byte_address // self._icache_line_size)
                if not self.icache.send(line_byte_address, False, tag):
                    still_waiting.append((warp_id, line_byte_address))
            self._ifetch_to_send = still_waiting

        # Data-side requests: at most ``num_threads`` sends per cycle (the LSU's
        # per-thread ports), oldest operation first.  ``_pending_ops`` is
        # insertion-ordered by construction (op ids are allocated
        # monotonically), so plain iteration is oldest-first; operations
        # merely waiting on outstanding responses have nothing to send.  Each
        # stretch of data-cache-only ops goes down in one ``send_batch``
        # call; an op with scratchpad lanes is routed per destination.
        budget = self.config.core.num_threads
        if self._pending_ops:
            batch: list[_PendingMemOp] = []
            for op in self._pending_ops.values():
                if op.op_id in self._smem_ops:
                    if batch:
                        budget = self.dcache.send_batch(batch, budget, False)
                        batch = []
                    budget = self._send_batch_segments(op, budget, False)
                elif op.to_send:
                    batch.append(op)
            if batch:
                budget = self.dcache.send_batch(batch, budget, False)
        if budget > 0 and self._store_queue:
            # A pass the blocked lower port refuses whole is charged from the
            # tallies; one that finds room walks until the lower blocks again.
            queue, tallies = self._store_queue, (self._store_bank_lanes, self._store_line_lanes)
            if self._store_smem_lanes or not dcache.charge_blocked_writes(*tallies, queue):
                stores = RequestGroup(queue)
                if self._store_smem_lanes:
                    self._send_batch_segments(stores, budget, True)
                    if stores.outstanding:
                        self._tally_stores(queue, -1)
                        self._tally_stores(stores.to_send)
                else:
                    dcache.send_batch((stores,), budget, True, tallies)
                if stores.outstanding:  # else every lane is back, in order
                    self._store_queue = stores.to_send
        if receipt is not None:
            dcache.receipt = None
            if receipt.charges:
                self._arm_repeat(receipt, start, budget)

    def _arm_repeat(self, receipt: Receipt, start: tuple[int, int], budget: int) -> None:
        """The arming rule for a DRAM-attached D$, traced or not: keep the pass
        just made, trace events included, if it started with no D$ port taken
        and no scratchpad lane pending (only such a pass records a receipt)
        and something was charged (an idle pass is cheaper than its repeat);
        it left no ifetch; the D$ epoch and DRAM room (``start``) held — only
        counted refusals went below; the loads left ``budget`` (no run was
        cut short); and every accept was a read hit or merge a repeat can
        redo (so no write-through)."""
        dcache = self.dcache
        epoch, room = start
        if (
            not self._ifetch_to_send
            and dcache.epoch == epoch
            and budget > 0
            and None not in receipt.taken
            and self._dram.room == room
        ):
            receipt.tally = [sum(counts) for counts in zip(*receipt.charges)]
            receipt.accepts = dict(dcache._accepts_this_cycle)
            self._repeat = ((epoch, self._drain_epoch, room > 0), receipt)

    def _send_batch_segments(self, group: Any, budget: int, is_write: bool) -> int:
        """Send a request group through the per-destination batch paths, one
        call per stretch of same-destination runs.  The live budget threads
        through, so the attempt order and the budget cut-off are those of one
        lane-by-lane pass; the group is written back as ``send_batch`` does."""
        entries = group.to_send
        refused: list[tuple[Any, ...]] = []
        index = 0
        total = len(entries)
        while index < total:
            if budget <= 0:
                refused.extend(entries[index:])
                break
            to_smem = entries[index][3]
            end = index + 1
            while end < total and entries[end][3] == to_smem:
                end += 1
            if to_smem:
                accepted, seg_refused, budget = self.smem.send_batch(
                    entries[index:end], budget, is_write, group.tag
                )
            else:
                segment = RequestGroup(entries[index:end], group.tag)
                budget = self.dcache.send_batch((segment,), budget, is_write)
                accepted, seg_refused = segment.outstanding, segment.to_send
            group.outstanding += accepted
            refused.extend(seg_refused)
            index = end
        group.to_send = refused
        return budget

    def _request_entries(self, addresses: Any) -> list[tuple[Any, ...]]:
        """Group a lane trace into ``(addresses, line, bank, to_smem)`` runs.

        A run is a maximal stretch of consecutive lanes on one cache line
        (and one destination: data cache or scratchpad window); lane order
        is kept, so flattening the runs gives ``addresses`` back.  A plain
        loop (up to 32 lanes it beats numpy's per-call overhead) keeps every
        field a Python int, so dict keys, tags and snapshots see no numpy scalars.
        """
        line_size = self._dcache_line_size
        num_banks = self._dcache_num_banks
        total = len(addresses)
        ends = []
        for index in range(total - 1):
            here, there = addresses[index], addresses[index + 1]
            if here // line_size != there // line_size or (
                (here >= SHARED_MEM_BASE) != (there >= SHARED_MEM_BASE)
            ):
                ends.append(index)
        if total:
            ends.append(total - 1)
        runs: list[tuple[Any, ...]] = []
        start = 0
        for end in ends:
            address = addresses[start]
            line = address // line_size
            runs.append(
                (tuple(addresses[start : end + 1]), line, line % num_banks,
                 address >= SHARED_MEM_BASE)
            )
            start = end + 1
        return runs

    # -- issue ----------------------------------------------------------------------------------

    def _issue(self, warp: Any) -> int:
        # Instruction fetch: cold lines go through the instruction cache.
        pc, warp_id = warp.pc, warp.warp_id
        line_size = self._icache_line_size
        iline = pc // line_size
        if iline not in self._warm_ilines:
            trace = self.trace
            if warp_id not in self._pending_ifetch:
                self._pending_ifetch[warp_id] = iline
                self._ifetch_to_send.append((warp_id, iline * line_size))
                self._masks_valid_until = 0
                self._counters["ifetch_misses"] += 1
                if trace is not None:
                    trace.emit(
                        self.clock.now, self.core_id, warp_id, "scheduler", "stall",
                        _IBUFFER_STALL,
                    )
            elif trace is not None:
                # Defensive: a warp with an ifetch in flight is mask-stalled
                # and should not reach here; keep the channel cycle-complete.
                trace.emit(self.clock.now, self.core_id, warp_id, "scheduler", "masked")
            return NOT_ISSUED

        # Scoreboard hazard check on the registers the instruction touches
        # (``Scoreboard.any_busy``, inlined).
        record = self._issue_records.get(pc) or self._issue_record(pc)
        if self.scoreboard._busy[warp_id] & record.registers:
            self._counters["scoreboard_stalls"] += 1
            self.scheduler.note_hazard(warp_id)
            trace = self.trace
            if trace is not None:
                trace.emit(
                    self.clock.now, self.core_id, warp_id, "scheduler", "stall",
                    _SCOREBOARD_STALL,
                )
            return NOT_ISSUED

        active = warp.active_count
        taken, addresses = self.func.step_warp_timing(warp)
        counters = self._counters
        counters["instructions"] += 1
        counters["thread_instructions"] += active
        self._warp_ready_cycle[warp_id] = self.clock.now + 1
        self.scheduler.note_issued(warp_id)
        trace = self.trace
        if trace is not None:
            trace.emit(
                self.clock.now, self.core_id, warp_id, "scheduler", "issue",
                self._pc_payload(pc),
            )
        if taken or record.timed:
            return self._charge_timing(warp, record, taken, addresses)
        return READY_NEXT  # nothing more to charge (no trace event either)

    def _charge_timing(
        self, warp: Any, record: _IssueRecord, taken: bool, addresses: list[int] | None
    ) -> int:
        """Charge one executed instruction (its :meth:`_issue_record`) from the
        ``(taken, addresses)`` pair ``func.step_warp_timing`` returned."""
        _, _, instr, unit, latency, kind = record

        # A plain issue moves no scheduler-mask input (``cycle + 1`` is never
        # in the future on a later tick).  A redirect stalls the warp, and
        # every instruction that can change ``active``/``at_barrier`` — its
        # own or, through ``wspawn``/``bar``, a sibling's — is SFU.
        if taken or unit == ExecUnit.SFU:
            self._masks_valid_until = 0
        if taken:
            self._warp_ready_cycle[warp.warp_id] = self.clock.now + 1 + BRANCH_PENALTY
            self._counters["taken_branches"] += 1
            trace = self.trace
            if trace is not None:
                trace.emit(
                    self.clock.now, self.core_id, warp.warp_id, "core", "redirect",
                    self._pc_payload(warp.pc),
                )

        if kind is not None:
            self._charge_memory(warp, instr, kind, addresses)
        elif instr.spec.writes_rd and latency > 1:
            rd, rd_float = instr.rd, instr.spec.rd_float
            self.scoreboard.reserve(warp.warp_id, rd, rd_float)
            trace = self.trace
            if trace is not None and (rd != 0 or rd_float):
                trace.emit(
                    self.clock.now, self.core_id, warp.warp_id, "scoreboard", "acquire",
                    self._register_payload(rd, rd_float),
                )
            self._writebacks.append((self.clock.now + latency, warp.warp_id, rd, rd_float))
        return ISSUED if taken or unit == ExecUnit.SFU else READY_NEXT

    def _charge_memory(self, warp: Any, instr: Any, kind: str, addresses: list[int]) -> None:
        self._drain_epoch += 1  # the request queues move
        spec = instr.spec
        to_send = self._request_entries(addresses)
        if to_send:
            self.scheduler.note_memory_issue(warp.warp_id, to_send[0][1])
        if kind == "store":
            self._store_queue.extend(to_send)
            self._tally_stores(to_send)
            self._counters["stores"] += len(addresses)
            return

        op = _PendingMemOp(
            op_id=self._next_op_id,
            warp_id=warp.warp_id,
            rd=instr.rd,
            rd_float=spec.rd_float,
            writes_rd=spec.writes_rd,
            kind=kind,
            to_send=to_send,
        )
        self._next_op_id += 1
        if kind == "tex" and self.func.tex_unit is not None:
            op.extra_latency = self.func.tex_unit.issue_latency(len(addresses))
            self._counters["tex_ops"] += 1
        else:
            self._counters["loads"] += len(addresses)
        if not op.to_send:
            # A load with no active threads (fully masked) completes immediately.
            if op.writes_rd:
                self._writebacks.append((self.clock.now + 1, op.warp_id, op.rd, op.rd_float))
            return
        if op.writes_rd:
            self.scoreboard.reserve(op.warp_id, op.rd, op.rd_float)
            trace = self.trace
            if trace is not None and (op.rd != 0 or op.rd_float):
                trace.emit(
                    self.clock.now, self.core_id, op.warp_id, "scoreboard", "acquire",
                    self._register_payload(op.rd, op.rd_float),
                )
        self._pending_ops[op.op_id] = op
        if any(run[3] for run in to_send):
            self._smem_ops.add(op.op_id)

    # -- fast-forward -----------------------------------------------------------------------------

    def _sends_pending(self) -> bool:
        """A drain would send or retry, and it is no pure refusal storm (only
        data-cache stores queued, the DRAM queue full)."""
        for op in self._pending_ops.values():
            if op.to_send:
                return True
        if not self._store_queue:
            return False
        dram = self._dram  # (a scratchpad store would be accepted)
        return dram is None or dram.room > 0 or self._store_smem_lanes > 0

    def _replayed_repeat(self) -> Receipt | None:
        """The receipt of the live drain memo the fast-forward replays, where
        no other rule skips the sends; else None."""
        memo = self._repeat
        if memo is None or not self._sends_pending():
            return None
        key, receipt = memo
        live = key == (self.dcache.epoch, self._drain_epoch, self._dram.room > 0)
        return receipt if live else None

    def next_event_cycle(self) -> int | None:
        """Earliest cycle at which this core does real work (``None`` = idle).

        Used by the processor's event-driven fast-forward: when every core
        and the memory subsystem report an event strictly beyond cycle
        ``C + 1``, :meth:`skip_idle` replays the cycles in between.  A warp
        that would issue is an event; one whose issue would only stall is
        not (its writeback or response is), nor are the core's I$ and D$
        responses.  Pending sends are an event next cycle (retries charge
        counters and may be accepted) except in a pure refusal storm (see
        :meth:`_sends_pending`; its end is the DRAM release) and an armed
        drain repeat (:meth:`_replayed_repeat`).  A repeat runs until a D$
        response would complete an op (one with nothing left to send), the
        memo ends, or the scheduler picks a warp that issues; a DRAM release,
        the other end, moves the memo's key.
        """
        cycle = self.clock.now
        if self._ifetch_to_send:
            return cycle + 1
        receipt = None
        if self._sends_pending():
            memo = self._repeat  # live as :meth:`_replayed_repeat` reads it, without the call
            if memo is None or memo[0] != (
                self.dcache.epoch, self._drain_epoch, self._dram.room > 0
            ):
                return cycle + 1
            receipt = memo[1]
        # Writebacks, responses and the repeat's end first: cheaper than the warps.
        soon, result = cycle + 1, None
        for ready, _warp_id, _rd, _rd_float in self._writebacks:
            if ready <= soon:
                return soon
            if result is None or ready < result:
                result = ready
        if receipt is None:
            due = self.dcache.next_response_cycle()
        else:  # the first D$ answer that can complete an op, and the repeats left
            counting = {op.tag for op in self._pending_ops.values() if op.to_send}
            counting.add(None)  # a store's
            due = self.dcache.next_response_cycle(counting)
            for group, index, lanes, _hit, _tail in receipt.taken:
                end = soon + (len(group.to_send[index][0]) - 1) // lanes
                if result is None or end < result:
                    result = end
        for ready in (due, self.icache.next_response_cycle(), self.smem.next_response_cycle()):
            if ready is not None and (result is None or ready < result):
                result = ready
        if result is not None and result <= soon:
            return soon
        ready_cycles = self._warp_ready_cycle
        pending_ifetch = self._pending_ifetch
        records, warm, busy = self._issue_records, self._warm_ilines, self.scoreboard._busy
        ready = stalls = 0  # schedulable wavefronts, and those a select only stalls
        for warp in self.func.warps:
            if not warp.active or warp.at_barrier or warp.warp_id in pending_ifetch:
                continue
            wake = ready_cycles[warp.warp_id]
            if wake <= cycle:
                # Its issue only stalls where a lane is on, the line is warm
                # (else an ifetch starts) and the hazard check hits (else it
                # executes, or raises).
                bit, pc, record = 1 << warp.warp_id, warp.pc, None
                ready |= bit
                if warp.active_count and pc // self._icache_line_size in warm:
                    record = records.get(pc)
                    if record is None:
                        try:
                            record = self._issue_record(pc)
                        except Exception:
                            pass
                if record is not None and busy[warp.warp_id] & record.registers:
                    stalls |= bit
                elif receipt is None:
                    return cycle + 1
                continue
            if result is None or wake < result:
                result = wake
        if ready != stalls:  # a repeat window ends where a wavefront that issues is picked
            picked = cycle + 1 + self.scheduler.stalls_ahead(ready, stalls)
            if result is None or picked < result:
                result = picked
        return result

    def skip_idle(self, cycles: int, marked: bool = True) -> None:
        """Advance ``cycles`` cycles :meth:`next_event_cycle` found replayable
        in one jump; the processor has already moved the clock past them.

        The L1s leave it with cleared port maps, except where the drain
        repeat is replayed (``NonBlockingCache.repeat``, all ``cycles`` at
        once; the D$ responses due inside only count ``outstanding`` down).
        A pure refusal storm charges each cycle's whole-queue refusal.  Each
        skipped tick's select is replayed for real: if any wavefront is
        schedulable, every tick picks one whose issue stalls (the policy's
        state moves as in a ticked run) and charges ``scoreboard_stalls``;
        otherwise every tick is a scheduler-idle cycle.

        With tracing on, a synthesized ``core/skip`` marker stamps the window
        (where ``marked``: a window only the drain repeat skips has none) and
        the per-cycle drain and scheduler events are emitted exactly as the
        ticked path would have — refusals through the drain's own
        :meth:`~repro.cache.cache.LowerPort.refuse_writes`, one cycle at a
        time, over the port maps the jump left empty — so ``expand_skips`` on
        the resulting stream reproduces a cycle-by-cycle ``tick()`` trace bit
        for bit.
        """
        base = self.clock.now - cycles
        counters = self._counters
        trace = self.trace
        if trace is not None and marked:
            trace.emit(base + 1, self.core_id, NO_WARP, "core", "skip", {"cycles": cycles})
        receipt = self._replayed_repeat()
        dcache = self.dcache
        self.icache.skip_idle()
        responses = dcache.skip_idle(receipt is not None)
        if receipt is not None:
            self._process_dcache_responses(responses)
            if not dcache.repeat(receipt, cycles):
                self._repeat = None
        elif self._store_queue:
            # Banks are port-free at the start of each fresh cycle and nothing
            # else accepts inside the window, so every attempt is a refusal.
            lanes = sum(self._store_bank_lanes)
            dcache._counters["attempts"] += lanes * cycles
            dcache._counters["memq_stalls"] += lanes * cycles
            queue, span = self._store_queue, cycles if trace is None else 1
            for start in range(base + 1, base + 1 + cycles, span):  # traced: cycle by cycle
                runs = (run[0] for _cycle in range(span) for run in queue)
                dcache.lower.refuse_writes(dcache, runs, lanes * span, start)
        if self.clock.now >= self._masks_valid_until:
            self._sync_scheduler_masks()
        scheduler = self.scheduler
        if scheduler.active_mask & ~scheduler.stalled_mask & ~scheduler.barrier_mask:
            select = scheduler.select
            note_hazard = scheduler.note_hazard
            for offset in range(cycles):
                warp_id = select()
                if warp_id is None:  # pragma: no cover - mask was non-empty
                    continue
                note_hazard(warp_id)
                if trace is not None:
                    trace.emit(
                        base + 1 + offset, self.core_id, warp_id, "scheduler", "stall",
                        _SCOREBOARD_STALL,
                    )
            counters["scoreboard_stalls"] += cycles
        else:
            counters["idle_cycles"] += cycles
            # ``select`` on an empty mask only counts an idle cycle, whatever
            # the policy: no selection state moves, so the bulk charge is exact.
            scheduler.perf.incr("idle_cycles", cycles)
            if trace is not None:
                payload = self._trace_mask_payload()
                for offset in range(cycles):
                    trace.emit(
                        base + 1 + offset, self.core_id, NO_WARP, "scheduler", "idle",
                        payload,
                    )

    def stall_forensics(self) -> dict:
        """What this core waits on (per-core payload of ``SimulationStalled``)."""
        scheduler = self.scheduler
        return {
            "core": self.core_id,
            "active_mask": scheduler.active_mask,
            "stalled_mask": scheduler.stalled_mask,
            "barrier_mask": scheduler.barrier_mask,
            "scoreboard_busy": self.scoreboard.snapshot()["busy"],
            "barriers": self.func.barriers.snapshot(lambda warp: warp.warp_id)["entries"],
            "pending_ifetch": len(self._pending_ifetch),
            "pending_ops": len(self._pending_ops),
            "pending_mshr": sum(len(b.mshr) for b in self.icache.banks + self.dcache.banks),
        }
