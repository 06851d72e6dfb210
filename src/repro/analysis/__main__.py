"""CLI driver: ``python -m repro.analysis [paths] [--list-rules]``.

Exit status is 0 when there is no finding — the contract the CI
``static_analysis`` job enforces.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.framework import load_modules, registered_rules, run_rules


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
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in registered_rules():
            print(f"{rule.id}  {rule.title:<22} scope: {', '.join(rule.scope)}")
        return 0

    findings = run_rules(load_modules(Path(p) for p in args.paths))
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"vxlint: {len(findings)} finding(s).", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
