"""Benchmark regression gate.

Compares a freshly measured smoke payload against the committed baseline
(``BENCH_service.json``) and fails when

* any scenario's ``speedup`` (the service's cached replay over its cold
  run) drops below ``--floor`` times the baseline speedup (machine noise
  between CI runners is why the floor is a fraction, not an equality),
* any bit-identity flag (``identical_counters`` / ``roundtrip_identical``)
  is false in the current payload, or
* a baseline scenario is missing from the current payload.

Run with::

    python benchmarks/check_regression.py BASELINE CURRENT [--floor 0.6]

``--require-identical PATH`` additionally (or instead) asserts the
bit-identity flags of a payload with no baseline comparison — the mode the
CI ``checkpoint_smoke``, ``trace_smoke`` and ``service_smoke`` steps use:
the gate fails unless the payload's top-level and per-row identity flags
are all true.

Exit status 0 means the gate is green.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Keys whose falseness means two runs that must agree diverged bit-for-bit.
IDENTITY_KEYS = (
    "identical_counters",
    "roundtrip_identical",
)


def scenario_key(row: dict) -> str:
    """Stable identifier for one benchmark row across payloads."""
    if "scenario" in row:
        return str(row["scenario"])
    kernel = row.get("kernel", "?")
    size = row.get("size", "?")
    warps = row.get("warps", "?")
    threads = row.get("threads", "?")
    return f"{kernel}@{size}:{warps}W-{threads}T"


def load_results(path: Path) -> dict:
    """Load a smoke payload into ``{scenario_key: row}``."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {scenario_key(row): row for row in payload["results"]}


def check(baseline_path: Path, current_path: Path, floor: float) -> list:
    """Return the list of human-readable gate failures (empty = green)."""
    baseline = load_results(baseline_path)
    current = load_results(current_path)
    failures = []
    for key, base_row in sorted(baseline.items()):
        row = current.get(key)
        if row is None:
            failures.append(f"{key}: missing from {current_path.name}")
            continue
        required = base_row["speedup"] * floor
        status = "ok"
        if row["speedup"] < required:
            status = "REGRESSION"
            failures.append(
                f"{key}: speedup {row['speedup']:.2f}x fell below the floor "
                f"{required:.2f}x ({floor:.0%} of the baseline {base_row['speedup']:.2f}x)"
            )
        for flag in IDENTITY_KEYS:
            if flag in row and not row[flag]:
                status = "MISMATCH"
                failures.append(f"{key}: {flag} is false — runs diverged")
        print(
            f"  {key:45s} baseline={base_row['speedup']:6.2f}x "
            f"current={row['speedup']:6.2f}x floor={required:5.2f}x  {status}"
        )
    return failures


def check_identity(path: Path) -> list:
    """Assert the bit-identity flags of one payload (no baseline needed).

    Used on the smoke scripts' payloads: every row must carry a
    true ``identical_counters`` (or sibling identity) flag, the top-level
    ``identical_counters`` flag — when present — must be true, and rows
    that errored fail the gate.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    failures = []
    if payload.get("identical_counters") is False:
        failures.append(f"{path.name}: top-level identical_counters is false")
    rows = payload.get("results", [])
    if not rows:
        # An empty sweep must not read as a green identity guarantee.
        failures.append(f"{path.name}: payload has no result rows to check")
    for row in rows:
        key = scenario_key(row)
        row_failures = []
        flags = [flag for flag in IDENTITY_KEYS if flag in row]
        if not flags:
            row_failures.append(f"{key}: carries no identity flag")
        for flag in flags:
            if not row[flag]:
                row_failures.append(f"{key}: {flag} is false — runs diverged")
                for mismatch in row.get("mismatches", []):
                    row_failures.append(f"{key}:   {mismatch}")
        for error in row.get("errors", []):
            row_failures.append(f"{key}: job errored: {error}")
        failures.extend(row_failures)
        print(f"  {key:45s} identity={'ok' if not row_failures else 'FAILED'}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, nargs="?", help="committed BENCH_*.json")
    parser.add_argument("current", type=Path, nargs="?", help="freshly measured BENCH_*.json")
    parser.add_argument(
        "--floor",
        type=float,
        default=0.6,
        help="minimum acceptable fraction of the baseline speedup (default 0.6)",
    )
    parser.add_argument(
        "--require-identical",
        type=Path,
        action="append",
        default=[],
        metavar="PAYLOAD",
        help="assert the bit-identity flags of PAYLOAD (repeatable; no baseline needed)",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.floor <= 1.0:
        parser.error("--floor must be in (0, 1]")
    if (args.baseline is None) != (args.current is None):
        parser.error("baseline and current must be given together")
    if args.baseline is None and not args.require_identical:
        parser.error("nothing to check: give BASELINE CURRENT and/or --require-identical")

    failures = []
    if args.baseline is not None:
        print(f"bench gate: {args.current} vs {args.baseline} (floor {args.floor:.0%})")
        failures.extend(check(args.baseline, args.current, args.floor))
    for payload_path in args.require_identical:
        print(f"identity gate: {payload_path}")
        failures.extend(check_identity(payload_path))
    if failures:
        print(f"\nbench gate FAILED ({len(failures)} problem(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
