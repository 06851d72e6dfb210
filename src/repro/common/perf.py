"""Performance counters shared by the timing models.

Every timing component (core, cache, texture unit, memory controller)
owns a :class:`PerfCounters` instance.  Counters are plain named integers
plus a few derived metrics; the benchmark harness merges them into the
per-experiment reports.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Mapping

from repro.common.state import COPY, Stateful


class PerfCounters(Stateful):
    """A dictionary of monotonically increasing counters with derived ratios.

    Keys are created on first use.  A misspelled key is therefore a new
    counter, not an error; the golden counter file
    (``tests/golden/simx_counters.json``) and the batched-vs-per-request
    cache properties compare whole counter dicts, which is what catches one.
    """

    #: The payload is the counter dict itself, refilled in place: hot paths
    #: prebind ``_counters``.
    STATE = {"_counters": COPY._replace(key="")}
    #: Display name, construction-time identity (vxlint VX007).
    SNAPSHOT_EXCLUDED = frozenset({"name"})

    def __init__(self, name: str = ""):
        self.name = name
        self._counters: defaultdict[str, int] = defaultdict(int)

    def incr(self, counter: str, amount: int = 1) -> None:
        """Increment ``counter`` by ``amount``."""
        self._counters[counter] += amount

    def set(self, counter: str, value: int) -> None:
        """Set ``counter`` to an absolute value."""
        self._counters[counter] = value

    def get(self, counter: str) -> int:
        """Read ``counter`` (0 if never touched)."""
        return self._counters.get(counter, 0)

    def ratio(self, numerator: str, denominator: str) -> float:
        """Return ``numerator / denominator`` guarding against division by zero."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def merge(self, other: PerfCounters, prefix: str = "") -> None:
        """Accumulate another counter set into this one."""
        for key, value in other.items():
            self._counters[prefix + key] += value

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self._counters.items())

    def as_dict(self) -> dict[str, int]:
        """Return a plain-dict snapshot."""
        return dict(self._counters)

    def update_from(self, mapping: Mapping[str, int]) -> None:
        """Accumulate counters from a plain mapping."""
        for key, value in mapping.items():
            self._counters[key] += value

    def reset(self) -> None:
        self._counters.clear()

    def __contains__(self, counter: str) -> bool:
        return counter in self._counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counters.items()))
        return f"PerfCounters({self.name!r}, {inner})"


__all__ = ["PerfCounters"]
