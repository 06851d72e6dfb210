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

import pytest
from test_golden_counters import SCENARIOS, _retry_wall

from repro.core.processor import TimingProcessor
from repro.core.timing import TimingCore
from repro.kernels import KERNELS
from repro.runtime.device import VortexDevice
from repro.runtime.registry import register_driver
from repro.runtime.simx import SimxDriver


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
    """On the retry-wall saxpy, most drains repeat: at least three drains
    for every ``send_batch`` call the armed core makes."""
    device, program, kernel, context = _staged("simx", KERNELS["saxpy"], 512, _retry_wall())
    core = device.driver.processor.cores[0]
    calls = {"drains": 0, "send_batch": 0}

    def counting(name, method):
        def counted(*args):
            calls[name] += 1
            return method(*args)

        return counted

    core._drain_requests = counting("drains", core._drain_requests)
    core.dcache.send_batch = counting("send_batch", core.dcache.send_batch)
    device.driver.run(program.entry)
    assert kernel.verify(device, context)
    assert calls["drains"] >= 3 * calls["send_batch"] > 0, calls
