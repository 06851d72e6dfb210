"""Structured launch parameters shared by every driver.

:class:`LaunchOptions` is the one record ``VortexDevice.launch`` and every
driver's ``run()`` accept, so callers need not know which backend they are
talking to; a driver takes its budgets from it and from nowhere else:

* ``max_cycles`` — cycle budget; enforced by cycle-level drivers and
  ignored by functional ones (they do not model time),
* ``max_instructions`` — warp-instruction budget; enforced by both driver
  families,
* ``arg_address`` — kernel argument-block address published through the
  AFU's ``ARG_ADDRESS`` MMIO register,
* ``entry_pc`` — overrides the uploaded program's entry point.

Exceeding a budget raises the usual typed
:class:`~repro.core.emulator.SimulationLimitExceeded`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LaunchOptions:
    """Uniform launch parameters for ``VortexDevice.launch`` and driver ``run``."""

    max_cycles: int | None = None
    max_instructions: int | None = None
    arg_address: int | None = None
    entry_pc: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_cycles", "max_instructions"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


def resolve_options(options: LaunchOptions | None) -> LaunchOptions:
    """A driver ``run()``'s ``options``, with ``None`` meaning the defaults."""
    if options is not None and not isinstance(options, LaunchOptions):
        # Catch pre-redesign positional budgets (run(pc, 500_000)) with a
        # clear error instead of an AttributeError deep in the driver.
        raise TypeError(
            f"options must be a LaunchOptions, got {type(options).__name__}; "
            "pass budgets as LaunchOptions(max_cycles=..., max_instructions=...)"
        )
    return options if options is not None else LaunchOptions()
