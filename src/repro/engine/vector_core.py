"""Vectorized functional core and processor.

``VectorSimtCore`` is a :class:`~repro.core.core.SimtCore` whose emulator
executes whole-warp lane vectors (:class:`VectorWarpEmulator`);
``VectorProcessor`` drives those cores with the same round-robin
instruction interleaving as the scalar :class:`~repro.core.processor.Processor`
— so barriers, ``wspawn`` ordering and memory visibility behave
identically — but batches the per-instruction bookkeeping (performance
counters, ``instret``) per scheduling round instead of per instruction.

Architectural results (registers, memory, retired-instruction counts) are
bit-identical to the scalar classes these subclass, which the differential
tests drive as the oracle.

The cycle-level driver reuses these pieces: ``TimingCore`` embeds a
:class:`VectorSimtCore` and steps issued warps through the same
compiled lane plans via :meth:`VectorWarpEmulator.step_timing`, so the
functional and timing fast paths share one plan compiler (and one
invalidation point: ``upload_program`` →
:meth:`WarpEmulator.invalidate_decode_cache`).  The lane traces a timing
step reports (``TimingStep.request_addresses``) feed the timing core's
batched per-bank request path: the warp's addresses are grouped and
arbitrated in bulk per cycle rather than re-sent lane by lane on every
retry.
"""

from __future__ import annotations

import numpy as np

from repro.core.core import SimtCore
from repro.core.emulator import EmulationError, SimulationLimitExceeded
from repro.core.processor import Processor
from repro.engine.vector_emulator import VectorWarpEmulator


class VectorSimtCore(SimtCore):
    """One Vortex core executing with lane-parallel (vectorized) semantics."""

    emulator_cls = VectorWarpEmulator


class VectorProcessor(Processor):
    """Functional multi-core processor backed by the vectorized cores."""

    core_cls = VectorSimtCore

    def run(
        self,
        entry_pc: int | None = None,
        max_instructions: int = 50_000_000,
        stop_after_instructions: int | None = None,
    ) -> int:
        """Run to completion; returns total warp instructions executed.

        Cores and wavefronts are interleaved at instruction granularity
        exactly like the scalar processor; the instruction limit is checked
        once per scheduling round (the round length is bounded by
        ``num_cores * num_warps``).

        ``stop_after_instructions`` pauses at the same scheduling-round
        boundaries as the scalar processor's, so a paused-and-resumed run
        replays the identical interleaving.
        """
        if entry_pc is not None:
            self.reset(entry_pc)
        executed = 0
        cores = self.cores
        # Performance counters are accumulated in plain ints and flushed
        # into the perf state once at the end (or on error): nothing
        # observes them mid-run and the per-instruction increments are
        # measurable at this loop's throughput.  The instret CSR *is*
        # guest-visible (csrrs of INSTRET), so it advances per retired
        # instruction, exactly like the scalar engine — and the limit is
        # checked per instruction so both engines raise at the same
        # boundary.
        retired_per_core = [0] * len(cores)
        threads_per_core = [0] * len(cores)
        try:
            with np.errstate(all="ignore"):
                while True:
                    progressed = False
                    for index, core in enumerate(cores):
                        build_plan = core.emulator._build_plan
                        csr = core.csr
                        retired = 0
                        thread_retired = 0
                        try:
                            for warp in core.warps:
                                if not warp.active or warp.at_barrier or warp._tmask == 0:
                                    continue
                                pc = warp.pc
                                cache = warp.plan_cache
                                plan = cache.get(pc)
                                if plan is None:
                                    plan = build_plan(warp, pc)
                                    cache[pc] = plan
                                thread_retired += warp.active_count
                                plan(warp)
                                warp.instructions += 1
                                csr.instret += 1
                                retired += 1
                                executed += 1
                                if executed >= max_instructions:
                                    raise SimulationLimitExceeded(
                                        "instructions",
                                        max_instructions,
                                        "processor exceeded the instruction limit "
                                        f"({max_instructions})",
                                    )
                        finally:
                            if retired:
                                progressed = True
                                retired_per_core[index] += retired
                                threads_per_core[index] += thread_retired
                    if not progressed:
                        if self.done:
                            break
                        raise EmulationError(
                            "processor deadlocked: active wavefronts exist but none can execute"
                        )
                    if (
                        stop_after_instructions is not None
                        and executed >= stop_after_instructions
                    ):
                        break
        finally:
            for index, core in enumerate(cores):
                if retired_per_core[index]:
                    core.perf.incr("instructions", retired_per_core[index])
                    core.perf.incr("thread_instructions", threads_per_core[index])
        self.perf.incr("instructions", executed)
        return executed
