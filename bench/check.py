"""Compare two result files of ``python3 -m bench.run``.

``python3 -m bench.check A.json B.json`` prints, for every (workload,
end-to-end metric), B's median against A's with its base and one verdict:

* ``better`` / ``worse`` — B moved past the metric's bound in ``BENCHMARK.json``;
* ``within-bound`` — it did not;
* ``unresolved`` — the spread of either side's repetitions (interquartile
  range over median) is wider than the bound, so the pair cannot tell.

Exit status is 1 on any ``worse`` and when B fails a larger share of its
output checks than A.  Differing report digests are printed: a change meant
only to speed the simulator must leave them identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

from bench.run import MANIFEST


def relative_spread(samples: list[float]) -> float:
    """Interquartile range over median (0 for a metric measured once)."""
    if len(samples) < 2:
        return 0.0
    first, _, third = statistics.quantiles(samples, n=4)
    return (third - first) / statistics.median(samples)


def verdict(base: float, new: float, better: str, bound: float, noise: float) -> str:
    """One (workload, metric) verdict; ``noise`` is the wider side's spread."""
    if noise > bound:
        return "unresolved"
    worsening = (new - base) / base if better == "lower" else (base - new) / base
    if worsening > bound:
        return "worse"
    if -worsening > bound:
        return "better"
    return "within-bound"


def compare(base: dict[str, Any], new: dict[str, Any], metrics: list[dict[str, Any]]) -> int:
    """Print every comparison; the number of regressions is the return value."""
    regressions = 0
    for name, a in base["workloads"].items():
        b = new["workloads"].get(name)
        if b is None:
            print(f"{name}: missing from the second file")
            regressions += 1
            continue
        for metric in metrics:
            key = metric["name"]
            old, cur = a["end_to_end"][key]["value"], b["end_to_end"][key]["value"]
            noise = max(
                relative_spread(side.get("samples", {}).get(key, [])) for side in (a, b)
            )
            result = verdict(old, cur, metric["better"], metric["bound"], noise)
            regressions += result == "worse"
            print(
                f"{name:<20} {key:<20} {cur:>14.6g} / {old:<14.6g} = {cur / old:7.4f}  "
                f"spread {noise:6.2%}  bound {metric['bound']:4.0%}  {result}"
            )
        old_fail, new_fail = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        if new_fail > old_fail:
            print(f"{name:<20} fail_ratio {new_fail:.6g} > {old_fail:.6g}  worse")
            regressions += 1
        if a["digest"] != b["digest"]:
            print(f"{name:<20} report digest differs: simulated results changed")
    return regressions


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 -m bench.check A.json B.json")
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in args)
    metrics = json.loads(MANIFEST.read_text())["end_to_end"]
    return int(compare(base, new, metrics) > 0)


if __name__ == "__main__":
    sys.exit(main())
