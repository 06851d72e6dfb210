"""Trace CLI: ``python -m repro.trace {summarize,convert,diff}``.

* ``summarize TRACE`` — per-channel event counts plus the scheduler
  stall/switch attribution, as JSON on stdout.
* ``convert SRC DEST --format {csv,jsonl,vcd}`` — re-encode a lossless
  trace (CSV/JSONL) into any sink format, including VCD for waveform
  viewers.
* ``diff LEFT RIGHT`` — compare two traces after expanding synthesized
  fast-forward skip markers; exit 1 when the streams differ.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.trace.attribution import attribute_stalls, summarize
from repro.trace.events import TraceEvent, expand_skips
from repro.trace.sinks import CsvSink, JsonlSink, VcdSink, load_trace

_SINKS = {"csv": CsvSink, "jsonl": JsonlSink, "vcd": VcdSink}


def _render(event: TraceEvent) -> str:
    payload = json.dumps(event.payload, sort_keys=True) if event.payload else ""
    return (
        f"cycle={event.cycle} core={event.core} warp={event.warp} "
        f"{event.channel}/{event.kind} {payload}".rstrip()
    )


def _cmd_summarize(args: argparse.Namespace) -> int:
    events = load_trace(args.trace)
    payload = summarize(events)
    payload["attribution"] = {
        f"core{core}": data for core, data in sorted(attribute_stalls(events).items())
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    events = load_trace(args.source)
    sink = _SINKS[args.format](args.dest)
    sink.write_batch(events)
    sink.close()
    print(f"wrote {len(events)} events to {args.dest} ({args.format})")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    left = expand_skips(load_trace(args.left))
    right = expand_skips(load_trace(args.right))
    if left == right:
        print(f"traces match: {len(left)} events (skip markers expanded)")
        return 0
    shown = 0
    for index, (one, other) in enumerate(zip(left, right)):
        if one != other:
            print(f"event {index}:\n  < {_render(one)}\n  > {_render(other)}")
            shown += 1
            if shown >= args.limit:
                print("  ... (further diffs elided)")
                break
    if len(left) != len(right):
        print(f"event counts differ: {len(left)} vs {len(right)}")
    print("traces differ")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.trace", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("summarize", help="per-channel counts + stall attribution")
    cmd.add_argument("trace", help="CSV or JSONL trace file")
    cmd.set_defaults(handler=_cmd_summarize)

    cmd = commands.add_parser("convert", help="re-encode a trace into another format")
    cmd.add_argument("source", help="CSV or JSONL trace file")
    cmd.add_argument("dest", help="output path")
    cmd.add_argument("--format", choices=sorted(_SINKS), required=True)
    cmd.set_defaults(handler=_cmd_convert)

    cmd = commands.add_parser("diff", help="compare two traces (skip markers expanded)")
    cmd.add_argument("left", help="CSV or JSONL trace file")
    cmd.add_argument("right", help="CSV or JSONL trace file")
    cmd.add_argument("--limit", type=int, default=10, help="max differing events to print")
    cmd.set_defaults(handler=_cmd_diff)

    args = parser.parse_args(argv)
    return int(args.handler(args))


if __name__ == "__main__":
    sys.exit(main())
