"""The drain repeat against a core that never arms it.

``TimingCore`` repeats a drain pass, through ``NonBlockingCache.repeat``,
while nothing the pass read has changed.  The ticked ``reset`` + ``tick()``
reference goes through the same drain, so it cannot catch a wrong repeat;
the reference here is the same core with arming switched off, plugged in
through the ``core_cls`` seam the ``simxref`` oracle uses.  Both must agree
in cycles, every counter (scratchpads included) and ``processor.snapshot()``
— at the end of a run and at pause points inside repeat windows — and,
traced, in every byte of the JSONL trace.  Tracing chooses no drain path:
a traced run makes the untraced run's passes, repeats and tally charges.
"""

from __future__ import annotations

import filecmp
import hashlib
import io

import numpy as np
import pytest
from test_golden_counters import SCENARIOS, _retry_wall

from repro.core.processor import TimingProcessor
from repro.core.timing import TimingCore
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice
from repro.runtime.registry import register_driver
from repro.runtime.simx import SimxDriver
from repro.trace.sinks import JsonlSink


class NeverArmedCore(TimingCore):
    """Every drain is a real pass."""

    def _arm_repeat(self, *pass_readings):
        pass


class NeverArmedProcessor(TimingProcessor):
    core_cls = NeverArmedCore


class NeverArmedDriver(SimxDriver):
    processor_cls = NeverArmedProcessor


register_driver(
    "simxnorepeat", NeverArmedDriver, options=("trace", "trace_file", "trace_channels")
)


def _staged(driver, kernel_factory, size, config):
    kernel = kernel_factory()
    device = VortexDevice(config, driver=driver)
    program = kernel.build_program()
    device.upload_program(program)
    context = kernel.setup(device, size)
    return device, program, kernel, context


def _state(device):
    """Cycles, retired counts and every counter, scratchpads included."""
    processor = device.driver.processor
    smem = {core.core_id: core.smem.perf.as_dict() for core in processor.cores}
    return (
        processor.cycle,
        processor.total_instructions,
        processor.total_thread_instructions,
        processor.counters(),
        smem,
    )


def _count_drain_calls(device):
    """Count the ``send_batch`` passes, ``repeat`` calls and tally charges
    that answered True on every data cache of ``device``."""
    counts = {"send_batch": 0, "repeat": 0, "charge_blocked_writes": 0}
    for cache in device.driver.processor.memsys.dcaches:
        for name in counts:
            method = getattr(cache, name)

            def counted(*args, name=name, method=method):
                answer = method(*args)
                # Every pass and repeat counts; a tally charge where it charged.
                counts[name] += answer if name == "charge_blocked_writes" else 1
                return answer

            setattr(cache, name, counted)
    return counts


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_golden_scenario_equals_never_armed(name):
    kernel_factory, size, config = SCENARIOS[name]
    armed = VortexDevice(config, driver="simx")
    calls = _count_drain_calls(armed)
    never = VortexDevice(config, driver="simxnorepeat")
    for device in (armed, never):
        assert kernel_factory().run(device, size=size).passed
    assert _state(armed) == _state(never)
    assert armed.driver.processor.snapshot() == never.driver.processor.snapshot()
    # Every DRAM-attached D$ here repeats; under an L2 it never arms.
    assert (calls["repeat"] > 0) == (config.enable_l2 is False), calls


def test_relaunch_equals_never_armed():
    """A second launch on the same device: warm caches, a new clock window."""
    config = _retry_wall()
    armed = VortexDevice(config, driver="simx")
    calls = _count_drain_calls(armed)
    never = VortexDevice(config, driver="simxnorepeat")
    for _launch in range(2):
        for device in (armed, never):
            assert KERNELS["sgemm"]().run(device, size=16 * 16).passed
        assert _state(armed) == _state(never)
        assert armed.driver.processor.snapshot() == never.driver.processor.snapshot()
        launched, calls["repeat"] = calls["repeat"], 0
        assert launched > 0


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_traced_drain_is_the_untraced_drain(name, tmp_path):
    """Tracing takes the untraced drain path, and the repeat re-emits exactly
    the events its passes would have: the armed and never-armed cores write
    the same trace file, byte for byte."""
    kernel_factory, size, config = SCENARIOS[name]
    # Under an L2 the repeat never arms: the never-armed core is this core.
    drivers = ("simx",) if config.enable_l2 else ("simx", "simxnorepeat")
    files = [tmp_path / f"{driver}.jsonl" for driver in drivers]
    calls = []
    for spec in ("simx", *(f"{d}:trace=jsonl,trace_file={f}" for d, f in zip(drivers, files))):
        device = VortexDevice(config, driver=spec)
        calls.append(_count_drain_calls(device))
        assert kernel_factory().run(device, size=size).passed
    untraced, traced = calls[:2]
    assert untraced == traced, name
    assert (untraced["repeat"] > 0) == (not config.enable_l2)
    if len(files) == 2:
        assert filecmp.cmp(*files, shallow=False)
    for path in files:
        path.unlink()  # up to a GB each


@pytest.mark.parametrize("kernel,size", [("saxpy", 512), ("sgemm", 16 * 16)])
def test_snapshots_inside_repeat_windows_equal_never_armed(kernel, size):
    """Pause both runs at cycles where the armed core holds a memo; the
    checkpoint payloads must be equal there, and at the end."""
    config = _retry_wall()
    armed, program, armed_kernel, armed_context = _staged(
        "simx", KERNELS[kernel], size, config
    )
    never, _, never_kernel, never_context = _staged(
        "simxnorepeat", KERNELS[kernel], size, config
    )
    core = armed.driver.processor.cores[0]
    inside = []
    stop, entry = 0, program.entry
    while entry is not None or not armed.driver.done:
        stop += 97
        armed.driver.run(entry, pause_at=stop, resume=entry is None)
        never.driver.run(entry, pause_at=stop, resume=entry is None)
        entry = None
        if core._repeat is not None and len(inside) < 4:
            inside.append(stop)
            assert armed.driver.processor.snapshot() == never.driver.processor.snapshot()
    assert len(inside) >= 3, inside
    assert never.driver.done
    assert armed_kernel.verify(armed, armed_context)
    assert never_kernel.verify(never, never_context)
    assert _state(armed) == _state(never)
    assert armed.driver.processor.snapshot() == never.driver.processor.snapshot()


def test_store_storm_repeats_most_drains():
    """On the retry-wall saxpy, most drains repeat: at least three drains —
    ticked, or repeats the fast-forward replays — for every ``send_batch``
    call the armed core makes."""
    device, program, kernel, context = _staged("simx", KERNELS["saxpy"], 512, _retry_wall())
    core = device.driver.processor.cores[0]
    calls = {"drains": 0, "send_batch": 0}

    def counting(name, method):
        def counted(*args):
            calls[name] += 1
            return method(*args)

        return counted

    def replaying(receipt, times=1, repeat=core.dcache.repeat):
        calls["drains"] += replayed[0] * times  # a ticked repeat's drain counts itself
        return repeat(receipt, times)

    def skipping(cycles, skip_idle=core.skip_idle):
        replayed[0] = 1
        skip_idle(cycles)
        replayed[0] = 0

    replayed = [0]
    core._drain_requests = counting("drains", core._drain_requests)
    core.dcache.send_batch = counting("send_batch", core.dcache.send_batch)
    core.dcache.repeat = replaying
    core.skip_idle = skipping
    device.driver.run(program.entry)
    assert kernel.verify(device, context)
    assert calls["drains"] >= 3 * calls["send_batch"] > 0, calls


# -- replayed repeat windows ---------------------------------------------------------------


class ExpandedDigest:
    """The JSONL bytes of ``expand_skips`` on a stream, kept as one sha256 per
    ``(cycle, core)`` — the groups it sorts the stream into, each in emission
    order — so a long trace is compared without holding it."""

    def __init__(self):
        self._text = io.StringIO()
        self._jsonl = JsonlSink(self._text)
        self.groups: dict = {}

    def write_batch(self, records) -> None:
        self._text.seek(0)
        self._text.truncate()
        self._jsonl.write_batch(records)
        for record, line in zip(records, self._text.getvalue().splitlines(keepends=True)):
            if record[3:5] != ("core", "skip"):
                group = self.groups.get(record[:2]) or self.groups.setdefault(
                    record[:2], hashlib.sha256()
                )
                group.update(line.encode("utf-8"))

    def close(self) -> None:
        return None

    def digest(self) -> dict:
        return {group: sha256.hexdigest() for group, sha256 in self.groups.items()}


def _replayed_windows(device) -> list[tuple[int, int]]:
    """Record the ``(first, last)`` launch cycles of every window in which the
    fast-forward replays a drain repeat."""
    processor = device.driver.processor
    windows = []
    for core in processor.cores:

        def skipping(cycles, marked=True, core=core, skip_idle=core.skip_idle):
            if core._replayed_repeat() is not None:
                windows.append((processor.cycle - cycles + 1, processor.cycle))
            skip_idle(cycles, marked)

        core.skip_idle = skipping
    return windows


def _count_ticks(device) -> list[int]:
    ticks = [0]

    def counted(tick=device.driver.processor.tick):
        ticks[0] += 1
        tick()

    device.driver.processor.tick = counted
    return ticks


def _tick_to(device, entry, cycle=None) -> None:
    """Advance the launch by ``tick()`` alone to ``cycle`` (None: its end)."""
    processor = device.driver.processor
    if entry is not None:
        processor.reset(entry)
    with np.errstate(all="ignore"):  # as TimingProcessor.run does for lane plans
        while not processor.done and (cycle is None or processor.cycle < cycle):
            processor.tick()


@pytest.mark.parametrize("kernel,size", [("saxpy", 512), ("sgemm", 16 * 16)])
def test_replayed_repeat_windows_equal_the_tick_loop(kernel, size):
    """The fast-forward replays a window of drain repeats in one step.
    ``run()`` must equal the ``tick()`` loop and the never-armed core in cycles
    and every counter and in ``processor.snapshot()`` at pause points that cut
    replayed windows; traced, ``run()`` must equal the ``tick()`` loop in the
    JSONL bytes after ``expand_skips``."""
    config = _retry_wall()
    factory = KERNELS[kernel]
    armed, program, _, _ = _staged("simx", factory, size, config)
    windows = _replayed_windows(armed)
    ticks = _count_ticks(armed)
    armed.driver.run(program.entry)
    never, _, _, _ = _staged("simxnorepeat", factory, size, config)
    never_ticks = _count_ticks(never)
    never.driver.run(program.entry)
    assert _state(armed) == _state(never)
    assert len(windows) > 10, windows
    if kernel == "saxpy":
        assert 2 * ticks[0] <= never_ticks[0], (ticks, never_ticks)

    # Pause in the middle of the four longest windows, then run to the end.
    longest = sorted(windows, key=lambda window: window[0] - window[1])[:4]
    pauses = sorted((first + last) // 2 for first, last in longest)
    staged = [_staged(driver, factory, size, config) for driver in ("simx", "simxnorepeat")]
    ticked, _, ticked_kernel, ticked_context = _staged("simx", factory, size, config)
    entry = program.entry
    for pause in [*pauses, None]:
        for device, *_ in staged:
            device.driver.run(entry, pause_at=pause, resume=entry is None)
        _tick_to(ticked, entry, pause)
        entry = None
        payloads = [device.driver.processor.snapshot() for device, *_ in staged]
        assert payloads[0] == payloads[1], pause
        expected = ticked.driver.processor.snapshot()
        del expected["idle_streak"], payloads[0]["idle_streak"]  # run()'s watchdog alone
        assert payloads[0] == expected, pause
    assert ticked_kernel.verify(ticked, ticked_context)
    for device, _, staged_kernel, context in staged:
        assert staged_kernel.verify(device, context)
        assert _state(device) == _state(ticked) == _state(armed)

    # Traced, up to the middle of the longest window: replayed windows emit
    # every cycle's events, unmarked.  (Against the never-armed core the whole
    # traced runs are compared byte for byte above.)
    stop = (longest[0][0] + longest[0][1]) // 2
    digests = []
    for ticking in (False, True):
        device, program, _, _ = _staged("simx:trace=mem", factory, size, config)
        sink = ExpandedDigest()
        device.driver.trace_bus.sinks[:] = [sink]
        if ticking:
            _tick_to(device, program.entry, stop)
            device.driver.trace_bus.flush()
        else:
            device.driver.run(program.entry, pause_at=stop)
        digests.append(sink.digest())
    assert digests[0] == digests[1]
    assert len(digests[0]) > stop // 2  # most cycles emit something
