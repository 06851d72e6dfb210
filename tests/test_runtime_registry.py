"""Tests for the spec-based driver registry (`repro.runtime.registry`).

Covers the satellite checklist: every registered spec string round-trips
``parse_driver_spec`` → ``DriverSpec`` → ``driver_name``, unknown
simulators/options raise with the available ones listed, and the
``register_driver`` hook plugs a third-party simulator into the device
facade and the session layer.
"""

from __future__ import annotations

import pytest

from repro.common.config import VortexConfig
from repro.mem.memory import MainMemory
from repro.runtime.device import VortexDevice
from repro.runtime.launch import LaunchOptions, resolve_options
from repro.runtime.registry import (
    _REGISTRY,
    DriverSpec,
    UnknownDriverOptionError,
    available_simulators,
    parse_driver_spec,
    register_driver,
)
from repro.runtime.report import ExecutionReport

# -- parsing and round-trips --------------------------------------------------------------

#: Every canonical spec string of the built-in registry.
CANONICAL_SPECS = ["simx", "simx:trace=mem", "funcsim"]


@pytest.mark.parametrize("text", CANONICAL_SPECS)
def test_spec_strings_round_trip(text):
    spec = parse_driver_spec(text)
    assert isinstance(spec, DriverSpec)
    assert spec.driver_name == text
    # Parsing the canonical name again is a fixed point.
    assert parse_driver_spec(spec.driver_name) == spec


def test_parse_accepts_spec_instances():
    spec = DriverSpec("simx", options=(("trace", "mem"),))
    assert parse_driver_spec(spec) is spec


def test_parse_declared_options_round_trip():
    spec = parse_driver_spec("simx:trace_channels=core+dcache,trace=mem")
    assert spec.options_dict == {"trace": "mem", "trace_channels": "core+dcache"}
    assert spec.driver_name == "simx:trace=mem,trace_channels=core+dcache"
    assert parse_driver_spec(spec.driver_name) == spec


def test_unknown_options_raise_typed_error_listing_valid():
    """A typo'd option fails at parse time with the valid set listed."""
    with pytest.raises(UnknownDriverOptionError, match=r"'trce'.*trace.*trace_file") as excinfo:
        parse_driver_spec("simx:trce=vcd")
    assert excinfo.value.simulator == "simx"
    assert excinfo.value.option == "trce"
    assert "trace" in excinfo.value.valid
    # The spec-instance path validates too (e.g. specs built programmatically).
    with pytest.raises(UnknownDriverOptionError):
        parse_driver_spec(DriverSpec("simx", options=(("foo", "bar"),)))
    # funcsim declares no options at all.
    with pytest.raises(UnknownDriverOptionError, match=r"valid options: \[\]"):
        parse_driver_spec("funcsim:trace=mem")
    # It is a ValueError subclass, so existing broad handlers still catch it.
    assert issubclass(UnknownDriverOptionError, ValueError)


def test_registered_options_are_introspectable():
    assert _REGISTRY["simx"].options == ("trace", "trace_file", "trace_channels")
    assert _REGISTRY["funcsim"].options == ()
    assert set(available_simulators()) >= {"simx", "funcsim"}


def test_default_engine_is_not_spelled_out():
    """Nothing about an engine rides in a spec: not in its name, not in the
    identity payload the cache key hashes (no default is resolved into it)."""
    from repro.runtime.serialize import spec_payload

    spec = parse_driver_spec("simx")
    assert spec == DriverSpec("simx") and spec.driver_name == "simx"
    assert spec_payload(spec) == {"simulator": "simx", "options": []}


# -- error reporting ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["verilator", "simx-scalar", "funcsim-scalar"])
def test_unknown_simulator_lists_available(name):
    """Includes the long-removed ``-scalar`` suffix spellings."""
    with pytest.raises(ValueError, match=rf"unknown simulator '{name}'.*funcsim.*simx"):
        parse_driver_spec(name)


def test_unknown_engine_lists_available():
    """The deleted ``engine`` option is an unknown option like any other: it
    fails at parse time, on every entry point, listing the declared options."""
    from repro.engine.session import KernelJob
    from repro.runtime.opencl import Context

    entry_points = (
        parse_driver_spec,
        lambda text: VortexDevice(VortexConfig(), driver=text),
        lambda text: KernelJob(kernel="vecadd", driver=text).spec,
        lambda text: Context(driver=text),
    )
    for text in ("simx:engine=scalar", "simx:engine=vector", "funcsim:engine=scalar"):
        for parse in entry_points:
            with pytest.raises(UnknownDriverOptionError) as excinfo:
                parse(text)
            assert excinfo.value.option == "engine"
            assert excinfo.value.valid == _REGISTRY[text.partition(":")[0]].options
    with pytest.raises(UnknownDriverOptionError) as excinfo:
        parse_driver_spec("simx:engine=scalar")
    assert str(excinfo.value) == (
        "unknown option 'engine' for simulator 'simx'; "
        "valid options: ['trace', 'trace_channels', 'trace_file']"
    )


def test_engine_keyword_is_a_type_error():
    """No layer accepts-and-ignores a stale ``engine=`` argument."""
    from repro.engine.session import KernelJob, Session
    from repro.runtime.simx import SimxDriver

    for stale in (
        lambda: KernelJob(kernel="vecadd", engine="scalar"),
        lambda: SimxDriver(engine="scalar"),
        lambda: DriverSpec("simx", engine="scalar"),
        lambda: Session(executor="serial").submit_sweep(
            "vecadd", [VortexConfig()], engine="scalar"
        ),
        lambda: register_driver("okname", lambda *a, **k: None, engines=("a",)),
    ):
        with pytest.raises(TypeError, match="engine"):
            stale()
    assert "okname" not in available_simulators()


def test_malformed_and_duplicate_options_rejected():
    with pytest.raises(ValueError, match="malformed driver spec"):
        parse_driver_spec("simx:scalar")
    with pytest.raises(ValueError, match="malformed driver spec.*got segment ''"):
        parse_driver_spec("simx:trace=mem,")
    # A trailing colon with no options is the same empty segment (regression).
    with pytest.raises(ValueError, match="malformed driver spec.*got segment ''"):
        parse_driver_spec("simx:")
    with pytest.raises(ValueError, match="duplicate option"):
        parse_driver_spec("simx:trace=mem,trace=csv")
    # A spec built directly cannot smuggle the duplicate past the string
    # parser and break the driver_name round-trip (regression).
    with pytest.raises(ValueError, match="duplicate option 'trace'"):
        DriverSpec("simx", options=(("trace", "mem"), ("trace", "csv")))
    with pytest.raises(TypeError):
        parse_driver_spec(42)


def test_register_driver_validates_inputs():
    with pytest.raises(ValueError, match="invalid simulator name"):
        register_driver("bad-name", lambda *a, **k: None)
    assert "bad-name" not in available_simulators()


# -- the registry drives construction -----------------------------------------------------


def test_register_driver_hook_plugs_into_device_and_session():
    """A third-party simulator registered through the hook is reachable via
    spec strings on the device facade (and therefore the session layer)."""

    class NullDriver:
        name = "nullsim"

        def __init__(self, config, memory, **extras):
            self.config = config or VortexConfig()
            self.memory = memory if memory is not None else MainMemory()
            self.extras = extras

        def run(self, entry_pc, options=None):
            options = resolve_options(options)
            return ExecutionReport(
                driver=self.name,
                cycles=0,
                instructions=0,
                thread_instructions=0,
            )

        def invalidate_decode_caches(self):
            pass

    try:
        # Registered without ``options=``: extras pass through verbatim —
        # even one spelled ``engine`` — and the registry adds no keyword.
        register_driver("nullsim", NullDriver)
        device = VortexDevice(VortexConfig(), driver="nullsim:engine=slow,turbo=on")
        assert device.driver.extras == {"engine": "slow", "turbo": "on"}
        assert device.memory is device.driver.memory
        report = device.launch(entry_pc=0x8000_0000)
        assert report.driver == "nullsim"
        assert VortexDevice(VortexConfig(), driver="nullsim").driver.extras == {}
    finally:
        _REGISTRY.pop("nullsim", None)


# -- launch options -----------------------------------------------------------------------


def test_launch_options_validation_and_merge():
    with pytest.raises(ValueError):
        LaunchOptions(max_cycles=0)
    with pytest.raises(ValueError):
        LaunchOptions(max_instructions=-1)
    base = LaunchOptions(max_cycles=100)
    merged = base.merged(max_cycles=None, max_instructions=5)
    assert merged.max_cycles == 100 and merged.max_instructions == 5
    assert base.merged() is base
    # A legacy keyword wins over the options field.
    assert resolve_options(LaunchOptions(max_cycles=7), max_cycles=9).max_cycles == 9
    assert resolve_options(None).max_cycles is None


def test_launch_options_entry_pc_override():
    """``LaunchOptions.entry_pc`` launches at the override, not the program entry."""
    from repro.isa.builder import ProgramBuilder
    from repro.isa.registers import Reg

    asm = ProgramBuilder(base=0x8000_0000)
    asm.li(Reg.t0, 11)  # default-entry path stores 11
    asm.li(Reg.t1, 0x4000)
    asm.sw(Reg.t0, 0, Reg.t1)
    asm.li(Reg.t2, 0)
    asm.tmc(Reg.t2)
    asm.label("alt")  # override path stores 77
    asm.li(Reg.t0, 77)
    asm.li(Reg.t1, 0x4000)
    asm.sw(Reg.t0, 0, Reg.t1)
    asm.li(Reg.t2, 0)
    asm.tmc(Reg.t2)
    program = asm.assemble()

    device = VortexDevice(VortexConfig(), driver="funcsim")
    device.upload_program(program)
    device.launch(options=LaunchOptions(entry_pc=program.address_of("alt")))
    assert device.memory.read_word(0x4000) == 77
    # The explicit entry_pc argument wins over the options field.
    device.launch(program.entry, options=LaunchOptions(entry_pc=program.address_of("alt")))
    assert device.memory.read_word(0x4000) == 11


def test_launch_options_are_uniform_across_drivers():
    """The same LaunchOptions object is accepted by both driver families."""
    from repro.core.emulator import SimulationLimitExceeded
    from repro.kernels import VecAddKernel

    options = LaunchOptions(max_instructions=10)
    for spec in ("simx", "funcsim"):
        device = VortexDevice(VortexConfig(), driver=spec)
        with pytest.raises(SimulationLimitExceeded) as excinfo:
            VecAddKernel().run(device, size=64, options=options)
        assert excinfo.value.kind == "instructions"
        assert excinfo.value.limit == 10


def test_kernel_run_leaves_entry_resolution_to_options():
    """Kernel.run must not pass an explicit entry that would outrank
    ``options.entry_pc`` in the launch precedence (regression)."""
    from repro.kernels import VecAddKernel

    device = VortexDevice(VortexConfig(), driver="funcsim")
    captured = {}
    real_launch = device.launch

    def spy(entry_pc=None, arg_address=None, options=None):
        captured["entry_pc"] = entry_pc
        captured["options"] = options
        return real_launch(entry_pc=entry_pc, arg_address=arg_address, options=options)

    device.launch = spy
    options = LaunchOptions(max_instructions=1_000_000)
    run = VecAddKernel().run(device, size=32, options=options)
    assert run.passed
    assert captured["entry_pc"] is None
    assert captured["options"] is options


def test_afu_tolerates_pre_options_driver_protocol():
    """An instance-constructed driver with the old ``run(entry_pc)``
    signature still launches; real launch options raise instead of being
    silently dropped."""
    from repro.runtime.driver import DriverError

    class OldProtocolDriver:
        name = "oldsim"

        def __init__(self):
            self.memory = MainMemory()

        def run(self, entry_pc):
            return ExecutionReport(
                driver=self.name, cycles=1, instructions=1, thread_instructions=1
            )

    device = VortexDevice(VortexConfig(), driver=OldProtocolDriver())
    report = device.launch(entry_pc=0x8000_0000)
    assert report.driver == "oldsim"
    with pytest.raises(DriverError, match="does not accept LaunchOptions"):
        device.launch(entry_pc=0x8000_0000, options=LaunchOptions(max_cycles=5))


def test_afu_does_not_misbind_options_to_legacy_budget_parameters():
    """A pre-options driver whose second parameter is a budget
    (``run(entry_pc, max_cycles=...)``) must not receive a LaunchOptions
    object positionally."""
    from repro.runtime.driver import DriverError

    class BudgetProtocolDriver:
        name = "budgetsim"

        def __init__(self):
            self.memory = MainMemory()
            self.seen_budget = None

        def run(self, entry_pc, max_cycles=1000):
            self.seen_budget = max_cycles
            return ExecutionReport(
                driver=self.name, cycles=1, instructions=1, thread_instructions=1
            )

    driver = BudgetProtocolDriver()
    device = VortexDevice(VortexConfig(), driver=driver)
    device.launch(entry_pc=0x8000_0000)
    assert driver.seen_budget == 1000  # the default, not a LaunchOptions object
    with pytest.raises(DriverError, match="does not accept LaunchOptions"):
        device.launch(entry_pc=0x8000_0000, options=LaunchOptions(max_cycles=5))


def test_max_instructions_budget_uniform_at_the_boundary():
    """LaunchOptions(max_instructions=N) behaves identically on both driver
    families at the exact boundary (both drivers retire the same warp
    instruction count for the same kernel)."""
    from repro.core.emulator import SimulationLimitExceeded
    from repro.kernels import VecAddKernel

    device = VortexDevice(VortexConfig(), driver="funcsim")
    executed = VecAddKernel().run(device, size=32).report.instructions
    for spec in ("simx", "funcsim"):
        # Budget of exactly `executed` raises on both backends...
        device = VortexDevice(VortexConfig(), driver=spec)
        with pytest.raises(SimulationLimitExceeded):
            VecAddKernel().run(device, size=32, options=LaunchOptions(max_instructions=executed))
        # ...while one more instruction of headroom completes on both.
        device = VortexDevice(VortexConfig(), driver=spec)
        run = VecAddKernel().run(
            device, size=32, options=LaunchOptions(max_instructions=executed + 1)
        )
        assert run.passed


def test_legacy_positional_budget_rejected_clearly():
    """``driver.run(pc, 500)`` (the pre-redesign positional budget) raises a
    clear TypeError instead of an AttributeError deep in option merging."""
    from repro.runtime.simx import SimxDriver

    driver = SimxDriver(VortexConfig())
    with pytest.raises(TypeError, match="LaunchOptions"):
        driver.run(0x8000_0000, 500)
