"""Outside-in host-time spans over the simulator's layer boundaries.

The traced repetition rebinds public methods on the *live instances* of one
run (``setattr(obj, name, timed(obj.name))``) with ``perf_counter_ns``
wrappers.  A per-thread span stack makes a span's **self time** its duration
minus its children's, so the per-layer numbers add up to the traced wall.
Nothing under ``src/`` knows about this module; untraced repetitions never
touch it.

A target that no longer exists raises :class:`MissingTarget` instead of
silently dropping a layer from the breakdown.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Callable
from time import perf_counter_ns
from typing import Any

#: Every span the benchmark can record, in catalogue order.  Each yields the
#: per-layer metrics ``<name>.self_s`` and ``<name>.calls`` on every workload
#: (0 where the layer does not run).
SPAN_NAMES = (
    # isa / kernels / runtime
    "isa.build_program",
    "runtime.device.init",
    "runtime.device.upload_program",
    "kernels.setup",
    "runtime.device.launch",
    "kernels.verify",
    # core
    "core.processor.run",
    "core.processor.tick",
    "core.timing.tick",
    "core.timing.next_event_cycle",
    "core.timing.skip_idle",
    "core.scheduler.select",
    "core.scoreboard.any_busy",
    # engine
    "engine.step_warp_timing",
    "engine.processor.run",
    # cache
    "cache.hierarchy.tick",
    "cache.hierarchy.next_event_cycle",
    "cache.hierarchy.skip_idle",
    "cache.icache.tick",
    "cache.icache.send",
    "cache.dcache.tick",
    "cache.dcache.send",
    "cache.dcache.send_batch",
    "cache.dcache.fill",
    "cache.l2.tick",
    "cache.l2.send",
    "cache.l2.fill",
    "cache.smem.tick",
    "cache.smem.send_batch",
    # mem
    "mem.dram.tick",
    "mem.dram.send",
    "mem.memory.gather_words",
    "mem.memory.scatter_words",
    # trace
    "trace.bus.emit",
    "trace.sink.close",
    # service (parent process)
    "service.fleet.start",
    "service.fleet.close",
    "service.client.run_jobs",
    "service.cache_key",
    "service.cache.lookup",
    "service.cache.store",
    "service.worker.request",
)


class MissingTarget(AttributeError):
    """A method the benchmark wraps is gone: fix the catalogue, do not skip it."""


class _ThreadSpans:
    """One thread's open-span stack and accumulated self times."""

    def __init__(self) -> None:
        self.stack: list[list[int]] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()


class SpanRecorder:
    """Accumulates self time and call counts per span name, kept in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as span ``name`` (re-entrant; exceptions still close it)."""
        spans_of = self._spans

        def timed(*args: Any, **kwargs: Any) -> Any:
            spans = spans_of()
            stack = spans.stack
            children = [0]
            stack.append(children)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                spans.self_ns[name] += elapsed - children[0]
                spans.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def instrument(self, obj: Any, attr: str, name: str) -> None:
        """Rebind ``obj.attr`` on the instance to its timed wrapper."""
        if name not in SPAN_NAMES:
            raise ValueError(f"span {name!r} is not in the catalogue")
        fn = getattr(obj, attr, None)
        if not callable(fn):
            raise MissingTarget(
                f"{type(obj).__name__}.{attr} (span {name!r}) no longer exists"
            )
        setattr(obj, attr, self.wrap(name, fn))

    def totals(self) -> dict[str, tuple[float, int]]:
        """``{span: (self seconds, calls)}`` summed over every thread."""
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        with self._lock:
            for spans in self._threads:
                self_ns.update(spans.self_ns)
                calls.update(spans.calls)
        return {name: (self_ns[name] / 1e9, calls[name]) for name in calls}

    def thread_self_seconds(self) -> float:
        """Self time recorded on the calling thread (the coverage numerator)."""
        return sum(self._spans().self_ns.values()) / 1e9
