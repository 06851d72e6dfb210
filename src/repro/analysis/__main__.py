"""CLI driver: ``python -m repro.analysis [paths] [options]``.

Exit status is 0 when every finding is fixed, suppressed inline, or
covered by the committed baseline — the contract the CI ``static_analysis``
job enforces.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.framework import Baseline, load_modules, registered_rules, run_rules

DEFAULT_BASELINE = Path("vxlint_baseline.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="vxlint: simulator-invariant static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline JSON of justified exceptions (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (report every finding)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file as a skeleton and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also report baselined findings and the suppression count",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in registered_rules():
            scope = ", ".join(rule.scope) if rule.scope else "<all modules>"
            print(f"{rule.id}  {rule.title:<22} scope: {scope}")
        return 0

    modules = load_modules(Path(p) for p in args.paths)

    baseline = Baseline() if args.no_baseline else Baseline.load(args.baseline)
    result = run_rules(modules, baseline=baseline)

    if args.write_baseline:
        Baseline.dump(result.findings, args.baseline)
        print(f"wrote {args.baseline} ({len(result.findings)} exceptions — fill in justifications)")
        return 0

    for finding in result.findings:
        print(finding.render())
    if args.verbose:
        for finding in result.baselined:
            print(f"[baselined] {finding.render()}")
        print(
            f"-- {len(result.findings)} finding(s), {len(result.baselined)} baselined, "
            f"{result.suppressed_count} suppressed inline"
        )
    if result.findings:
        print(
            f"vxlint: {len(result.findings)} finding(s). Fix them, suppress inline with "
            "`# vxlint: disable=VXnnn`, or baseline with a justification.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
