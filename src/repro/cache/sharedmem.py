"""Per-core shared (scratchpad) memory.

The paper's memory system offers an optional shared memory per core that
acts as a software-managed scratchpad (section 4.1.4).  It is banked like
the data cache but always hits; the only timing behaviour is bank-conflict
serialization.  Functionally it is carved out of the global address space
(one window per core) so kernels address it with ordinary loads and stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.clock import NEVER, DeviceClock
from repro.common.perf import PerfCounters
from repro.common.state import CHILD, COPY, Codec, Stateful
from repro.trace.events import NO_WARP

#: Base of the shared-memory window; core ``i`` owns one window of
#: ``SHARED_MEM_STRIDE`` bytes starting at ``SHARED_MEM_BASE + i * stride``.
SHARED_MEM_BASE = 0xFF00_0000
SHARED_MEM_STRIDE = 0x0001_0000


def shared_mem_window(core_id: int) -> tuple[int, int]:
    """Return the (base, limit) of core ``core_id``'s shared-memory window."""
    base = SHARED_MEM_BASE + core_id * SHARED_MEM_STRIDE
    return base, base + SHARED_MEM_STRIDE


def is_shared_address(address: int) -> bool:
    """True when ``address`` falls inside any shared-memory window."""
    return address >= SHARED_MEM_BASE


@dataclass
class SharedResponse:
    """A completed scratchpad access."""

    address: int
    is_write: bool
    tag: Any
    cycle: int


#: Pending accesses as ``(ready cycle, access)``.  Scratchpad tags are
#: core-local plain tuples (``("op", op_id)``): no ``refs`` needed.
_PENDING = Codec(
    lambda smem, pending, refs: [(ready, vars(response).copy()) for ready, response in pending],
    lambda smem, data, pending, refs: [
        (ready, SharedResponse(**response)) for ready, response in data
    ],
)


class SharedMemory(Stateful):
    """Banked scratchpad with single-cycle access and bank-conflict serialization."""

    STATE = {"_accepts_this_cycle": COPY, "_pending": _PENDING, "perf": CHILD}
    #: Construction-time geometry and window, the processor's clock, the
    #: trace payloads and the derived ``wake`` (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset(
        {"core_id", "size", "num_banks", "latency", "base", "limit", "trace", "clock",
         "_payloads", "wake"}
    )

    def __init__(self, core_id: int, size: int, num_banks: int = 4, latency: int = 1):
        self.core_id = core_id
        self.clock = DeviceClock()  # private until the owning core installs the device's
        self.size = size
        self.num_banks = num_banks
        self.latency = latency
        self.base, self.limit = shared_mem_window(core_id)
        self.perf = PerfCounters(f"smem{core_id}")
        # Observability (attached by the owning TimingCore): one ``smem`` event
        # per access attempt, with this scratchpad's one ``{"bank": b}`` payload.
        self.trace: Any = None
        self._payloads = [{"bank": bank} for bank in range(num_banks)]
        self._accepts_this_cycle: dict[int, int] = {}
        self._pending: list[tuple[int, SharedResponse]] = []
        self.wake = 0  # no tick before it has work: next cycle while a port or access is held

    def after_restore(self) -> None:
        self.wake = 0

    def contains(self, address: int) -> bool:
        """True when ``address`` belongs to this core's window."""
        return self.base <= address < self.base + self.size

    def send_batch(
        self, requests: list[tuple[Any, ...]], budget: int, is_write: bool, tag: Any
    ) -> tuple[int, list[tuple[Any, ...]], int]:
        """Present a cycle's scratchpad lanes in one call (the timing core's path).

        ``requests`` holds the timing core's same-line runs
        ``(addresses, ...)``.  The scratchpad's banks are word-interleaved,
        so the lanes *inside* a run spread over the banks and are attempted
        one by one, strictly in order while ``budget`` lasts; a lane whose
        bank already took an access this cycle is refused (a bank conflict,
        retried next cycle) and stays in the returned retry list (a partly
        accepted run as a new run of the lanes that were not) without
        consuming budget.  Returns ``(accepted, refused, budget)`` with
        counters aggregated and flushed once, bit-identical to a per-access
        loop (``smem_send`` in ``tests/test_cache.py``, the reference).
        """
        accepts = self._accepts_this_cycle
        pending = self._pending
        num_banks = self.num_banks
        cycle = self.clock.now
        ready_cycle = cycle + self.latency
        trace = self.trace
        core_id = self.core_id
        payloads = self._payloads
        accept_kind = "write" if is_write else "read"
        accepted_count = bank_conflicts = 0
        refused: list[tuple[Any, ...]] = []
        for index, run in enumerate(requests):
            if budget <= 0:
                refused.extend(requests[index:])
                break
            addresses = run[0]
            if len(accepts) >= num_banks:
                # One accept per bank per cycle: once every bank has taken
                # its own, a whole run conflicts in one step.
                bank_conflicts += len(addresses)
                refused.append(run)
                if trace is not None:
                    for address in addresses:
                        trace.emit(
                            cycle, core_id, NO_WARP, "smem", "conflict",
                            payloads[(address // 4) % num_banks],
                        )
                continue
            kept: list[int] = []
            for done, address in enumerate(addresses):
                if budget <= 0:
                    kept.extend(addresses[done:])
                    break
                bank = (address // 4) % num_banks
                if bank in accepts:
                    bank_conflicts += 1
                    kept.append(address)
                    if trace is not None:
                        trace.emit(cycle, core_id, NO_WARP, "smem", "conflict", payloads[bank])
                    continue
                accepts[bank] = 1
                pending.append(
                    (ready_cycle, SharedResponse(address=address, is_write=is_write, tag=tag, cycle=0))
                )
                accepted_count += 1
                budget -= 1
                if trace is not None:
                    trace.emit(cycle, core_id, NO_WARP, "smem", accept_kind, payloads[bank])
            if len(kept) == len(addresses):
                refused.append(run)
            elif kept:
                refused.append((tuple(kept),) + run[1:])
        counters = self.perf._counters
        if accepted_count or bank_conflicts:
            counters["attempts"] += accepted_count + bank_conflicts
        if bank_conflicts:
            counters["bank_conflicts"] += bank_conflicts
        if accepted_count:
            counters["writes" if is_write else "reads"] += accepted_count
            if self.wake > cycle:
                self.wake = cycle + 1
        return accepted_count, refused, budget

    def tick(self) -> list[SharedResponse]:
        """Free the bank ports; return the accesses completing this cycle."""
        if self._accepts_this_cycle:
            self._accepts_this_cycle.clear()
        if not self._pending:
            self.wake = NEVER
            return []
        now = self.clock.now
        ready = [resp for ready_cycle, resp in self._pending if ready_cycle <= now]
        if ready:
            self._pending = [
                (ready_cycle, resp)
                for ready_cycle, resp in self._pending
                if ready_cycle > now
            ]
            for resp in ready:
                resp.cycle = now
        self.wake = now + 1 if self._pending else NEVER
        return ready

    # -- fast-forward ------------------------------------------------------------------

    def next_response_cycle(self) -> int | None:
        """Earliest cycle a pending access completes (``None`` when idle)."""
        if not self._pending:
            return None
        return min(ready_cycle for ready_cycle, _ in self._pending)

    @property
    def busy(self) -> bool:
        return bool(self._pending)
