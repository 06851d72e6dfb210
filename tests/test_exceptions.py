"""Every exception class under ``repro`` survives a pickle round trip.

Typed errors cross process boundaries (a service worker hands a job's error
back to the caller), and ``BaseException`` pickles as ``type(*args)``: a
class whose constructor takes its fields rather than its message needs a
``__reduce__``.  The classes are discovered, so a new one is covered as it
is written; one with its own constructor needs an entry in ``SAMPLE_ARGS``.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.core.emulator import SimulationLimitExceeded, SimulationStalled
from repro.isa.assembler import AssemblerError
from repro.runtime.registry import UnknownDriverOptionError
from repro.trace.sinks import TraceFormatError, TraceVersionError

#: Constructor arguments per class that defines its own ``__init__``.
SAMPLE_ARGS = {
    SimulationLimitExceeded: ("cycles", 10, 7, 10),
    SimulationStalled: (
        900, 512, [{"core": 0, "barriers": [(1, 4, [0, 2])]}], [(3, 2, [[0, 1], [1, 1]])]
    ),
    AssemblerError: ("unknown mnemonic 'ad'", 7),
    UnknownDriverOptionError: ("simx", "trce", ("trace", "trace_file", "trace_channels")),
    TraceFormatError: ("run.jsonl", 3, "not a JSON object", "{oops"),
    TraceVersionError: ("run.jsonl", 1, 99),
}


def _exception_classes() -> list[type[BaseException]]:
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                inspect.isclass(value)
                and issubclass(value, BaseException)
                and value.__module__ == module.__name__
            ):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return [found[name] for name in sorted(found)]


def _instance(cls: type[BaseException]) -> BaseException:
    owner = next(klass for klass in cls.__mro__ if "__init__" in vars(klass))
    if owner.__module__.startswith("repro."):
        return cls(*SAMPLE_ARGS[owner])
    return cls("something went wrong")


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda cls: cls.__qualname__)
def test_exception_survives_pickling(cls):
    error = _instance(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)


def test_every_constructor_sample_is_used():
    owners = {
        next(klass for klass in cls.__mro__ if "__init__" in vars(klass))
        for cls in _exception_classes()
    }
    assert set(SAMPLE_ARGS) <= owners
