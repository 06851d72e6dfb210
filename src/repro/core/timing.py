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
from typing import Any

import numpy as np

from repro.cache.cache import CacheResponse, NonBlockingCache
from repro.cache.sharedmem import SHARED_MEM_BASE, SharedMemory
from repro.common.config import VortexConfig
from repro.common.perf import PerfCounters, hot_path
from repro.core.core import SimtCore
from repro.core.scheduler import WavefrontScheduler
from repro.core.scoreboard import Scoreboard
from repro.isa.instructions import ExecUnit
from repro.trace.events import NO_WARP

#: Extra cycles a warp waits after a taken branch (front-end redirect).
BRANCH_PENALTY = 2

#: "No such cycle": the horizon of an empty set of future events.
_NEVER = 1 << 62


@dataclass
class _PendingMemOp:
    """A memory (or texture) instruction waiting for its cache responses.

    ``to_send`` holds the outstanding requests as *runs*
    ``(addresses, line, bank_id, to_smem)`` — the byte addresses of
    consecutive lanes that share a cache line, grouped (with the cache
    geometry) once at charge time, so retry cycles arbitrate per run and
    never re-derive either.
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


def _lanes_of(runs: list[tuple[Any, ...]]) -> list[list[Any]]:
    """Snapshot codec: runs flattened to one ``[address, line, bank, to_smem]`` per lane.

    The partition into runs is not architectural state — any same-line
    grouping of the lane list behaves identically — so the wire format stays
    per lane and :meth:`TimingCore.restore` regroups the addresses with
    ``_request_entries``, merging adjacent same-line lanes whichever
    instruction they came from.
    """
    return [
        [address, line, bank, to_smem]
        for addresses, line, bank, to_smem in runs
        for address in addresses
    ]


class TimingCore:
    """Cycle-level model of one Vortex core.

    The embedded functional core ``func`` executes each issued instruction
    as a whole-warp lane plan (:meth:`VectorWarpEmulator.step_timing`); the
    timing model — scheduler, scoreboard, latencies, caches, MSHRs — charges
    only the per-instruction facts of the returned step, so any
    :class:`SimtCore` whose ``step_warp_timing`` reports the same facts
    yields bit-identical cycles, IPC and performance counters (the tests'
    per-thread oracle is one).
    """

    #: Functional core to instantiate as ``func``; ``None`` means the
    #: vectorized core, resolved at construction.
    func_cls: type[SimtCore] | None = None

    #: Counter schema (vxlint VX003): the keys this core charges on its own
    #: ``perf``.  Cross-component charges (the skip-idle refusal replay into
    #: the dcache) use the dcache's declared keys.
    COUNTERS = frozenset(
        {
            "idle_cycles",
            "instructions",
            "thread_instructions",
            "taken_branches",
            "scoreboard_stalls",
            "ifetch_misses",
            "loads",
            "stores",
            "tex_ops",
            "mem_ops_completed",
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
        func_cls = self.func_cls
        if func_cls is None:
            # Imported lazily: repro.engine.vector_core imports the processor
            # module, which imports this one.
            from repro.engine.vector_core import VectorSimtCore

            func_cls = VectorSimtCore
        self.func = func_cls(core_id, config, memory, processor=processor)
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
        #: guards on that, keeping the hot path allocation-free; vxlint VX008).
        self.trace = trace
        if trace is not None and trace.wants("smem"):
            self.smem.trace = trace
        if trace is not None and trace.wants("barrier"):
            self.func.barriers.on_event = self._trace_barrier

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
        # Per-PC cache of the scoreboard mask of the registers the decoded
        # instruction touches (a function of the decode; dropped with it).
        self._registers_by_pc: dict[int, int | None] = {}
        # Cache geometry prebound for the request precompute and the
        # fast-forward stall probe.
        self._dcache_line_size = self.dcache.config.line_size
        self._dcache_num_banks = self.dcache.config.num_banks
        self._icache_line_size = config.icache.line_size

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
        self._registers_by_pc.clear()
        for warp_id in self._warp_ready_cycle:
            self._warp_ready_cycle[warp_id] = 0
        self._masks_valid_until = 0

    def invalidate_caches(self) -> None:
        """Drop decode-derived caches (a new program image was loaded)."""
        self.func.emulator.invalidate_decode_cache()
        self._registers_by_pc.clear()

    # -- checkpoint/restore ----------------------------------------------------------

    #: Attributes deliberately outside the snapshot (vxlint VX007):
    #: configuration identity, constructor-derived lookup tables, references
    #: owned and serialized by the memory subsystem (``clock``: the
    #: processor), the per-PC register cache (a pure function of the decode,
    #: rebuilt lazily), the ``perf`` alias ``_counters`` and the mask horizon
    #: :meth:`restore` invalidates.
    SNAPSHOT_EXCLUDED = frozenset(
        {
            "core_id",
            "config",
            "clock",
            "icache",
            "dcache",
            "trace",
            "_counters",
            "_unit_latency",
            "_masks_valid_until",
            "_registers_by_pc",
            "_dcache_line_size",
            "_dcache_num_banks",
            "_icache_line_size",
        }
    )

    def snapshot(self) -> dict:
        """Serialize the core's timing state plus the embedded functional core.

        The instruction/data caches are referenced, not owned: the memory
        subsystem serializes them.  Pending-operation dicts are emitted as
        ordered lists — op ids are allocated monotonically, so list order
        reproduces the oldest-first drain order exactly.  Outstanding
        requests keep the per-lane wire format (``_lanes_of``).
        """
        return {
            "func": self.func.snapshot(),
            "scheduler": self.scheduler.snapshot(),
            "scoreboard": self.scoreboard.snapshot(),
            "smem": self.smem.snapshot(),
            "perf": self.perf.snapshot(),
            "warp_ready_cycle": dict(self._warp_ready_cycle),
            "writebacks": [list(entry) for entry in self._writebacks],
            "pending_ops": [
                {
                    "op_id": op.op_id,
                    "warp_id": op.warp_id,
                    "rd": op.rd,
                    "rd_float": op.rd_float,
                    "writes_rd": op.writes_rd,
                    "kind": op.kind,
                    "to_send": _lanes_of(op.to_send),
                    "outstanding": op.outstanding,
                    "extra_latency": op.extra_latency,
                }
                for op in self._pending_ops.values()
            ],
            "store_queue": _lanes_of(self._store_queue),
            "next_op_id": self._next_op_id,
            "warm_ilines": sorted(self._warm_ilines),
            "pending_ifetch": dict(self._pending_ifetch),
            "ifetch_to_send": [list(entry) for entry in self._ifetch_to_send],
        }

    def restore(self, payload: dict) -> None:
        """Restore from a :meth:`snapshot` payload.

        The functional core's restore invalidates the decode caches; the
        per-PC register cache derived from the same decode is dropped here.
        """
        self.func.restore(payload["func"])
        self.scheduler.restore(payload["scheduler"])
        self.scoreboard.restore(payload["scoreboard"])
        self.smem.restore(payload["smem"])
        self.perf.restore(payload["perf"])
        self._warp_ready_cycle = {
            int(warp_id): ready for warp_id, ready in payload["warp_ready_cycle"].items()
        }
        self._writebacks = [tuple(entry) for entry in payload["writebacks"]]
        self._pending_ops = {}
        for op_payload in payload["pending_ops"]:
            op = _PendingMemOp(
                op_id=op_payload["op_id"],
                warp_id=op_payload["warp_id"],
                rd=op_payload["rd"],
                rd_float=op_payload["rd_float"],
                writes_rd=op_payload["writes_rd"],
                kind=op_payload["kind"],
                to_send=self._request_entries([lane[0] for lane in op_payload["to_send"]]),
                outstanding=op_payload["outstanding"],
                extra_latency=op_payload["extra_latency"],
            )
            self._pending_ops[op.op_id] = op
        self._store_queue = self._request_entries([lane[0] for lane in payload["store_queue"]])
        self._next_op_id = payload["next_op_id"]
        self._warm_ilines = set(payload["warm_ilines"])
        self._pending_ifetch = {
            int(warp_id): line for warp_id, line in payload["pending_ifetch"].items()
        }
        self._ifetch_to_send = [tuple(entry) for entry in payload["ifetch_to_send"]]
        self._registers_by_pc.clear()
        self._masks_valid_until = 0

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

    @hot_path
    def _sync_scheduler_masks(self) -> None:
        """Recompute the three scheduler masks and the cycle they hold until."""
        active_mask = stalled_mask = barrier_mask = 0
        cycle = self.clock.now
        valid_until = _NEVER
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

    @hot_path
    def _instruction_registers(self, warp: Any) -> int | None:
        """Scoreboard mask of the registers read/written by the warp's next
        instruction (for hazard checks); ``None`` when it cannot be fetched.

        The result depends only on the decoded instruction, so it is cached
        per PC (hazard checks re-run every issue attempt, including stall
        retries).
        """
        pc = warp.pc
        cached = self._registers_by_pc.get(pc, False)
        if cached is not False:
            return cached
        registers = self._compute_instruction_registers(pc)
        self._registers_by_pc[pc] = registers
        return registers

    def _compute_instruction_registers(self, pc: int) -> int | None:
        try:
            instr = self.func.emulator.fetch(pc)
        except Exception:
            return None
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
        return Scoreboard.mask_of(registers)

    # -- per-cycle operation ----------------------------------------------------------------

    def tick(
        self,
        icache_responses: list[CacheResponse] | None = None,
        dcache_responses: list[CacheResponse] | None = None,
    ) -> None:
        """Run the core's device cycle ``clock.now``."""
        if self._writebacks:
            self._process_writebacks()
        if icache_responses:
            self._process_icache_responses(icache_responses)
        if dcache_responses:
            self._process_dcache_responses(dcache_responses)
        self._process_smem_responses()
        if self._ifetch_to_send or self._pending_ops or self._store_queue:
            self._drain_requests()

        if self.clock.now >= self._masks_valid_until:
            self._sync_scheduler_masks()
        warp_id = self.scheduler.select()
        if warp_id is None:
            self._counters["idle_cycles"] += 1
            trace = self.trace
            if trace is not None:
                trace.emit(
                    self.clock.now, self.core_id, NO_WARP, "scheduler", "idle",
                    self._trace_mask_payload(),
                )
            return
        warp = self.func.warps[warp_id]
        if not warp.schedulable:
            trace = self.trace
            if trace is not None:
                trace.emit(self.clock.now, self.core_id, warp_id, "scheduler", "masked")
            return
        self._issue(warp)

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
                        {"register": rd, "float": rd_float},
                    )
            else:
                remaining.append((ready_cycle, warp_id, rd, rd_float))
        self._writebacks = remaining

    def _process_icache_responses(self, responses: list[CacheResponse]) -> None:
        for response in responses:
            tag = response.tag
            if not (isinstance(tag, tuple) and tag and tag[0] == "ifetch"):
                continue
            _, warp_id, line_address = tag
            self._warm_ilines.add(line_address)
            if self._pending_ifetch.get(warp_id) == line_address:
                del self._pending_ifetch[warp_id]
                self._masks_valid_until = 0

    def _process_dcache_responses(self, responses: list[CacheResponse]) -> None:
        for response in responses:
            tag = response.tag
            if not (isinstance(tag, tuple) and tag and tag[0] == "op"):
                continue
            op = self._pending_ops.get(tag[1])
            if op is None:
                continue
            op.outstanding -= len(response.addresses)  # one record per accepted run
            self._maybe_complete_op(op)

    def _process_smem_responses(self) -> None:
        for response in self.smem.tick():
            tag = response.tag
            if not (isinstance(tag, tuple) and tag and tag[0] == "op"):
                continue
            op = self._pending_ops.get(tag[1])
            if op is None:
                continue
            op.outstanding -= 1
            self._maybe_complete_op(op)

    def _maybe_complete_op(self, op: _PendingMemOp) -> None:
        if op.outstanding > 0 or op.to_send:
            return
        ready = self.clock.now + 1 + op.extra_latency
        if op.writes_rd:
            self._writebacks.append((ready, op.warp_id, op.rd, op.rd_float))
        del self._pending_ops[op.op_id]
        self._counters["mem_ops_completed"] += 1
        trace = self.trace
        if trace is not None:
            trace.emit(
                self.clock.now, self.core_id, op.warp_id, "core", "commit",
                {"op": op.op_id, "kind": op.kind},
            )

    # -- request draining ----------------------------------------------------------------------

    @hot_path
    def _drain_requests(self) -> None:
        """Send as many queued cache/scratchpad requests as accepted this cycle."""
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
        # merely waiting on outstanding responses have nothing to send.
        budget = self.config.core.num_threads
        if self._pending_ops:
            for op in list(self._pending_ops.values()):
                if budget <= 0:
                    break
                if op.to_send:
                    budget = self._send_for_op(op, budget)
        if budget > 0 and self._store_queue:
            self._store_queue, budget, _ = self._send_batch_segments(
                self._store_queue, budget, True, None
            )

    @hot_path
    def _send_for_op(self, op: _PendingMemOp, budget: int) -> int:
        refused, budget, accepted = self._send_batch_segments(
            op.to_send, budget, False, ("op", op.op_id)
        )
        op.to_send = refused
        op.outstanding += accepted
        self._maybe_complete_op(op)
        return budget

    @hot_path
    def _send_batch_segments(
        self, entries: list[tuple[Any, ...]], budget: int, is_write: bool, tag: Any
    ) -> tuple[list[tuple[Any, ...]], int, int]:
        """Send ``(addresses, line, bank, to_smem)`` runs in order through
        the per-destination batch paths.

        Consecutive same-destination runs go down in one ``send_batch``
        call (one call per warp memory instruction in the common all-global
        case); the live budget threads through so the attempt order and the
        budget-cutoff point are those of one lane-by-lane pass.
        Returns ``(refused, budget, accepted)`` with ``refused`` preserving
        retry order and ``accepted`` counting lanes.
        """
        refused: list[tuple[Any, ...]] = []
        accepted_total = 0
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
            segment = entries if index == 0 and end == total else entries[index:end]
            if to_smem:
                accepted, seg_refused, budget = self.smem.send_batch(
                    segment, budget, is_write, tag
                )
            else:
                accepted, seg_refused, budget = self.dcache.send_batch(
                    segment, budget, is_write, tag
                )
            accepted_total += accepted
            if seg_refused:
                refused.extend(seg_refused)
            index = end
        return refused, budget, accepted_total

    def _request_entries(self, addresses: Any) -> list[tuple[Any, ...]]:
        """Group a lane trace into ``(addresses, line, bank, to_smem)`` runs.

        A run is a maximal stretch of consecutive lanes on one cache line
        (and one destination: data cache or scratchpad window); lane order
        is kept, so flattening the runs gives ``addresses`` back.  Runs once
        per memory instruction (not per retry attempt); wide traces find the
        cut points through numpy, narrow ones through a plain loop (numpy's
        per-call overhead loses below a handful of lanes).  Every field
        stays a Python int, so dict keys, tags and snapshots never see numpy
        scalars.
        """
        line_size = self._dcache_line_size
        num_banks = self._dcache_num_banks
        total = len(addresses)
        if total >= 8:
            array = np.asarray(addresses, dtype=np.int64)
            lines = array // line_size
            to_smem = array >= SHARED_MEM_BASE
            ends = np.flatnonzero(
                (lines[1:] != lines[:-1]) | (to_smem[1:] != to_smem[:-1])
            ).tolist()
        else:
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

    @hot_path
    def _issue(self, warp: Any) -> None:
        # Instruction fetch: cold lines go through the instruction cache.
        line_size = self._icache_line_size
        iline = warp.pc // line_size
        if iline not in self._warm_ilines:
            trace = self.trace
            if warp.warp_id not in self._pending_ifetch:
                self._pending_ifetch[warp.warp_id] = iline
                self._ifetch_to_send.append((warp.warp_id, iline * line_size))
                self._masks_valid_until = 0
                self._counters["ifetch_misses"] += 1
                if trace is not None:
                    trace.emit(
                        self.clock.now, self.core_id, warp.warp_id, "scheduler", "stall",
                        {"reason": "ibuffer"},
                    )
            elif trace is not None:
                # Defensive: a warp with an ifetch in flight is mask-stalled
                # and should not reach here; keep the channel cycle-complete.
                trace.emit(self.clock.now, self.core_id, warp.warp_id, "scheduler", "masked")
            return

        # Scoreboard hazard check on the registers the instruction touches.
        registers = self._instruction_registers(warp)
        if registers is not None and self.scoreboard.any_busy(warp.warp_id, registers):
            self._counters["scoreboard_stalls"] += 1
            self.scheduler.note_hazard(warp.warp_id)
            trace = self.trace
            if trace is not None:
                trace.emit(
                    self.clock.now, self.core_id, warp.warp_id, "scheduler", "stall",
                    {"reason": "scoreboard"},
                )
            return

        pc = warp.pc
        result = self.func.step_warp_timing(warp)
        counters = self._counters
        counters["instructions"] += 1
        counters["thread_instructions"] += result.active_thread_count
        self._warp_ready_cycle[warp.warp_id] = self.clock.now + 1
        self.scheduler.note_issued(warp.warp_id)
        trace = self.trace
        if trace is not None:
            trace.emit(
                self.clock.now, self.core_id, warp.warp_id, "scheduler", "issue", {"pc": pc}
            )
        self._charge_timing(warp, result)

    def _charge_timing(self, warp: Any, result: Any) -> None:
        """Charge one executed instruction from the ``instr``, ``taken_branch``
        and ``request_addresses`` of the step ``func.step_warp_timing`` returned
        (a :class:`~repro.engine.vector_emulator.TimingStep`)."""
        spec = result.instr.spec
        unit = spec.unit

        # A plain issue moves no scheduler-mask input (``cycle + 1`` is never
        # in the future on a later tick).  A redirect stalls the warp, and
        # every instruction that can change ``active``/``at_barrier`` — its
        # own or, through ``wspawn``/``bar``, a sibling's — is SFU.
        if result.taken_branch or unit == ExecUnit.SFU:
            self._masks_valid_until = 0
        if result.taken_branch:
            self._warp_ready_cycle[warp.warp_id] = self.clock.now + 1 + BRANCH_PENALTY
            self._counters["taken_branches"] += 1
            trace = self.trace
            if trace is not None:
                trace.emit(
                    self.clock.now, self.core_id, warp.warp_id, "core", "redirect",
                    {"pc": warp.pc},
                )

        if unit in (ExecUnit.LSU, ExecUnit.TEX):
            self._charge_memory(warp, result)
            return

        latency = self._unit_latency.get(unit, 1)
        if spec.writes_rd and latency > 1:
            self.scoreboard.reserve(warp.warp_id, result.instr.rd, spec.rd_float)
            trace = self.trace
            if trace is not None and (result.instr.rd != 0 or spec.rd_float):
                trace.emit(
                    self.clock.now, self.core_id, warp.warp_id, "scoreboard", "acquire",
                    {"register": result.instr.rd, "float": spec.rd_float},
                )
            self._writebacks.append(
                (self.clock.now + latency, warp.warp_id, result.instr.rd, spec.rd_float)
            )

    def _charge_memory(self, warp: Any, result: Any) -> None:
        spec = result.instr.spec
        is_store = spec.is_store
        addresses = result.request_addresses or []
        to_send = self._request_entries(addresses)
        if to_send:
            self.scheduler.note_memory_issue(warp.warp_id, to_send[0][1])
        if is_store:
            self._store_queue.extend(to_send)
            self._counters["stores"] += len(addresses)
            return

        op = _PendingMemOp(
            op_id=self._next_op_id,
            warp_id=warp.warp_id,
            rd=result.instr.rd,
            rd_float=spec.rd_float,
            writes_rd=spec.writes_rd,
            kind="tex" if spec.unit == ExecUnit.TEX else "load",
            to_send=to_send,
        )
        self._next_op_id += 1
        if spec.unit == ExecUnit.TEX and self.func.tex_unit is not None:
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
                    {"register": op.rd, "float": op.rd_float},
                )
        self._pending_ops[op.op_id] = op

    # -- fast-forward -----------------------------------------------------------------------------

    @hot_path
    def _warp_would_stall(self, warp: Any) -> bool:
        """True when issuing ``warp`` now would only charge a scoreboard stall.

        Mirrors the front half of :meth:`_issue`: the wavefront must be
        func-schedulable (a selected all-masked warp does nothing — and
        charges nothing), its instruction line must be warm (a cold line
        starts an ifetch — a state change) and the hazard check must hit (a
        miss executes the instruction).  While this holds and nothing else
        changes, each tick selects the warp and increments
        ``scoreboard_stalls`` — a deterministic pattern :meth:`skip_idle`
        can replay in bulk.
        """
        if not warp.schedulable:
            return False
        if warp.pc // self._icache_line_size not in self._warm_ilines:
            return False
        registers = self._instruction_registers(warp)
        return registers is not None and self.scoreboard.any_busy(warp.warp_id, registers)

    @hot_path
    def next_event_cycle(self) -> int | None:
        """Earliest cycle at which this core does real work (``None`` = idle).

        Used by the processor's event-driven fast-forward: when every core
        and the memory subsystem report an event strictly beyond cycle
        ``C + 1``, the cycles in between are provably stall ticks.  Any
        pending send forces an event next cycle (retry attempts increment
        perf counters every tick), and a schedulable warp that would
        actually issue likewise executes next cycle.  A schedulable warp
        that would merely charge a scoreboard stall is *not* an event: its
        unblocking writeback/response is, and until then each tick's
        select-and-stall is replayed exactly by :meth:`skip_idle`.
        """
        cycle = self.clock.now
        if self._ifetch_to_send:
            return cycle + 1
        for op in self._pending_ops.values():
            if op.to_send:
                return cycle + 1
        if self._store_queue:
            # Pending stores normally force an event next cycle (every retry
            # attempt charges counters *and* may be accepted).  The exception
            # is a pure refusal storm: all entries target the data cache and
            # its lower queue is provably full until some later cycle — then
            # each tick's drain refuses the whole queue with a constant
            # counter delta that :meth:`skip_idle` replays in bulk, and the
            # queue's release (the DRAM head pop) is already an event in the
            # memory subsystem's scan.
            horizon = self.dcache.write_refusal_horizon()
            if horizon is None or horizon <= cycle + 1:
                return cycle + 1
            for run in self._store_queue:
                if run[3]:  # a scratchpad store would be accepted
                    return cycle + 1
        result: int | None = None
        ready_cycles = self._warp_ready_cycle
        pending_ifetch = self._pending_ifetch
        for warp in self.func.warps:
            if not warp.active or warp.at_barrier or warp.warp_id in pending_ifetch:
                continue
            wake = ready_cycles[warp.warp_id]
            if wake <= cycle:
                if not self._warp_would_stall(warp):
                    return cycle + 1
                continue
            if result is None or wake < result:
                result = wake
        for ready, _warp_id, _rd, _rd_float in self._writebacks:
            wake = ready if ready > cycle else cycle + 1
            if result is None or wake < result:
                result = wake
        smem_ready = self.smem.next_response_cycle()
        if smem_ready is not None:
            wake = smem_ready if smem_ready > cycle else cycle + 1
            if result is None or wake < result:
                result = wake
        return result

    def skip_idle(self, cycles: int) -> None:
        """Advance ``cycles`` provably event-free cycles in one jump.

        Equivalent to ``cycles`` ticks in which nothing is sent and nothing
        completes; the processor has already moved the clock past them.  The
        scheduler interaction of each skipped tick is replayed for real: if
        any wavefront is schedulable it is — provably, per
        :meth:`next_event_cycle` — scoreboard-blocked, so every tick selects
        one wavefront (mutating the policy's selection state exactly as a
        ticked run would) and charges one ``scoreboard_stalls``; otherwise
        every tick is a scheduler-idle cycle.

        With tracing on, a synthesized ``core/skip`` marker stamps the
        window and the per-cycle scheduler/refusal events are emitted
        exactly as the ticked path would have — ``expand_skips`` on the
        resulting stream reproduces a cycle-by-cycle ``tick()`` trace bit
        for bit.
        """
        base = self.clock.now - cycles
        counters = self._counters
        trace = self.trace
        if trace is not None:
            trace.emit(base + 1, self.core_id, NO_WARP, "core", "skip", {"cycles": cycles})
        if self._store_queue:
            # Pending stores only survive into a skip as a pure refusal storm
            # (per :meth:`next_event_cycle`): every skipped tick re-attempts
            # the whole queue against a provably full lower queue.  Banks are
            # port-free at the start of each fresh cycle and nothing else
            # accepts inside the window, so no entry ever charges a bank
            # conflict — every attempt is a lower-level refusal.
            refusals = sum(len(run[0]) for run in self._store_queue) * cycles
            self.dcache.perf.incr("attempts", refusals)
            self.dcache.perf.incr("memq_stalls", refusals)
            self.dcache.lower.note_skipped_refusal(refusals)
            if self.dcache.trace is not None:
                self._trace_skip_refusals(base, cycles)
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
                        {"reason": "scoreboard"},
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

    def _trace_skip_refusals(self, base: int, cycles: int) -> None:
        """Replay the per-attempt refusal events of a store-refusal storm.

        The counter math above stays bulk; these events mirror what the
        ticked drain would emit — every queued lane attempts once per cycle
        and is refused by the full lower queue (never a bank conflict, per
        the storm argument in :meth:`skip_idle`).
        """
        dcache = self.dcache
        dtrace = dcache.trace
        if dtrace is None:  # pragma: no cover - checked by the caller
            return
        channel = dcache.trace_channel
        core = dcache.trace_core
        payloads = [
            (len(addresses), {"bank": bank, "line": line, "write": True})
            for addresses, line, bank, _to_smem in self._store_queue
        ]
        for offset in range(cycles):
            cycle = base + 1 + offset
            for lanes, payload in payloads:
                for _ in range(lanes):
                    dtrace.emit(cycle, core, NO_WARP, channel, "refusal", payload)

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
