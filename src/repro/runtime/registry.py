"""Spec-based driver registry: one structured way to name a simulator.

Backends are selected by structured data, never by mutating name strings:

* :class:`DriverSpec` — a parsed ``(simulator, options)`` pair.  The
  canonical spec-string syntax is ``"<simulator>"`` or
  ``"<simulator>:key=value[,key=value...]"`` (``"simx:trace=jsonl"``).
* :func:`parse_driver_spec` — string / :class:`DriverSpec` → validated
  :class:`DriverSpec`.
* :func:`register_driver` — the hook third-party simulators use to plug
  into :class:`~repro.runtime.device.VortexDevice` and the job layer.
* :func:`create_driver` — spec → constructed driver instance.
* :class:`ExecutionEngine` — the protocol every registered driver implements.

The built-in SIMX (cycle-level) and FUNCSIM (functional) drivers register
themselves at import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import Any, Protocol, runtime_checkable

from repro.common.config import VortexConfig
from repro.mem.memory import MainMemory
from repro.runtime.launch import LaunchOptions
from repro.runtime.report import ExecutionReport


@runtime_checkable
class ExecutionEngine(Protocol):
    """What a simulation driver must provide to plug into the runtime stack.

    Construct against a ``(config, memory)`` pair, run a kernel to
    completion, and let the program-load path invalidate cached decodes.
    """

    #: Short identifier used in reports ("funcsim", "simx", …).
    name: str

    def run(self, entry_pc: int, options: LaunchOptions | None = None) -> ExecutionReport:
        """Execute the kernel at ``entry_pc`` to completion.

        ``options`` is the uniform :class:`LaunchOptions` record; drivers
        apply the budget fields that are meaningful for their model and
        ignore the rest.
        """
        ...

    def invalidate_decode_caches(self) -> None:
        """Drop cached instruction decodes (a new program image was loaded)."""
        ...


@dataclass(frozen=True)
class DriverSpec:
    """A structured driver selection: which simulator, plus its options.

    ``options`` carries the ``key=value`` pairs of the spec string
    (forwarded verbatim to the driver factory), stored as a sorted tuple of
    pairs so specs stay hashable and usable as dataclass defaults.
    """

    simulator: str
    options: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        options = tuple(sorted(self.options))
        for (key, _), (following, _) in zip(options, options[1:]):
            if key == following:
                raise ValueError(f"duplicate option {key!r} in driver spec {self.simulator!r}")
        object.__setattr__(self, "options", options)

    @property
    def options_dict(self) -> dict[str, str]:
        return dict(self.options)

    @property
    def driver_name(self) -> str:
        """The canonical spec string (round-trips through :func:`parse_driver_spec`)."""
        if not self.options:
            return self.simulator
        return self.simulator + ":" + ",".join(f"{k}={v}" for k, v in self.options)


class UnknownDriverOptionError(ValueError):
    """A driver spec carried an option its simulator does not declare.

    Raised while *parsing* the spec — long before a factory call could
    silently swallow (or crash on) the stray keyword — so a typo like
    ``"simx:trce=vcd"`` fails loudly, listing the valid options.
    """

    def __init__(self, simulator: str, option: str, valid: tuple[str, ...]):
        self.simulator = simulator
        self.option = option
        self.valid = valid
        super().__init__(
            f"unknown option {option!r} for simulator {simulator!r}; "
            f"valid options: {sorted(valid)}"
        )

    def __reduce__(self):
        return type(self), (self.simulator, self.option, self.valid)


@dataclass(frozen=True)
class DriverEntry:
    """One registered simulator: factory plus its declared option keys.

    ``options`` is the declared set of spec option keys; ``None`` is the
    third-party escape hatch — a driver registered without a declaration
    accepts any option, preserving the pass-through-verbatim contract for
    factories the registry cannot introspect.
    """

    simulator: str
    factory: Callable[..., object]
    options: tuple[str, ...] | None = None


_REGISTRY: dict[str, DriverEntry] = {}


def register_driver(
    simulator: str,
    factory: Callable[..., object],
    options: tuple[str, ...] | None = None,
) -> DriverEntry:
    """Register a simulator under ``simulator``.

    ``factory`` is called as ``factory(config, memory, **options)`` and must
    return a driver implementing the :class:`ExecutionEngine` protocol.
    ``options`` declares the spec option keys the factory accepts — unknown
    keys then raise :class:`UnknownDriverOptionError` at parse time; ``None``
    (the default) skips the check for factories the registry cannot
    introspect.
    Returns the registry entry (useful for introspection in tests).
    """
    if not simulator or any(ch in simulator for ch in ":,=- "):
        raise ValueError(
            f"invalid simulator name {simulator!r}: must be non-empty and free of ':,=- '"
        )
    entry = DriverEntry(
        simulator=simulator,
        factory=factory,
        options=None if options is None else tuple(options),
    )
    _REGISTRY[simulator] = entry
    return entry


def available_simulators() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _registry_entry(simulator: str) -> DriverEntry:
    try:
        return _REGISTRY[simulator]
    except KeyError:
        raise ValueError(
            f"unknown simulator {simulator!r}; available: {sorted(_REGISTRY)}"
        ) from None


def _validate_options(entry: DriverEntry, keys: Iterable[str]) -> None:
    if entry.options is None:
        return
    for key in keys:
        if key not in entry.options:
            raise UnknownDriverOptionError(entry.simulator, key, entry.options)


def parse_driver_spec(spec: str | DriverSpec) -> DriverSpec:
    """Parse and validate a driver spec string (or pass a spec through).

    Accepts the ``"sim"`` / ``"sim:key=value,key=value"`` syntax.
    """
    if isinstance(spec, DriverSpec):
        _validate_options(_registry_entry(spec.simulator), spec.options_dict)
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"driver spec must be a string or DriverSpec, got {type(spec).__name__}")

    simulator, colon, option_text = spec.partition(":")
    entry = _registry_entry(simulator)
    options: dict[str, str] = {}
    if colon:
        for item in option_text.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key or not value:
                raise ValueError(
                    f"malformed driver spec {spec!r}: expected "
                    f"'{simulator}:key=value[,key=value...]', got segment {item!r}"
                )
            if key in options:
                raise ValueError(f"duplicate option {key!r} in driver spec {spec!r}")
            options[key] = value
    _validate_options(entry, options)
    return DriverSpec(simulator=simulator, options=tuple(options.items()))


def create_driver(
    spec: str | DriverSpec,
    config: VortexConfig | None = None,
    memory: MainMemory | None = None,
) -> Any:
    """Construct the driver a spec describes.

    Spec options are forwarded to the factory as keyword arguments.
    """
    spec = parse_driver_spec(spec)
    return _registry_entry(spec.simulator).factory(config, memory, **spec.options_dict)


def _register_builtin_drivers() -> None:
    # Imported here (not at module top) so the registry stays importable
    # from the driver modules themselves without a cycle.
    from repro.runtime.driver import FuncSimDriver
    from repro.runtime.simx import SimxDriver

    register_driver("simx", SimxDriver, options=("trace", "trace_file", "trace_channels"))
    register_driver("funcsim", FuncSimDriver, options=())


_register_builtin_drivers()
