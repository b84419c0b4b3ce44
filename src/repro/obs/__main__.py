"""``python -m repro.obs`` — render a trace file or directory.

Subcommands::

    summary  <trace>   span/event rollup
    phases   <trace>   per-phase wall/rounds/messages/bits table
    cache    <trace>   cache hit/miss breakdown
    fleet    <trace>   per-shard lease activity
    validate <trace>   schema check (exit 5 on problems)

``--json`` on the view subcommands emits the underlying aggregate
instead of the ascii table.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs import report
from repro.obs.trace import read_trace, validate_trace


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="render repro trace files",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("summary", "phases", "cache", "fleet", "validate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("trace", help="trace file or directory")
        if name != "validate":
            cmd.add_argument(
                "--json",
                action="store_true",
                help="emit the aggregate as JSON instead of a table",
            )
    ns = parser.parse_args(argv)

    try:
        records = read_trace(ns.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2

    if ns.command == "validate":
        problems = validate_trace(records)
        if problems:
            for problem in problems:
                print(problem)
            return 5
        print(f"trace ok ({len(records)} records)")
        return 0

    if ns.command == "summary":
        if ns.json:
            print(
                json.dumps(
                    {
                        "spans": report.span_rollup(records),
                        "events": report.event_rollup(records),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(report.render_summary(records))
    elif ns.command == "phases":
        if ns.json:
            print(
                json.dumps(
                    report.span_rollup(records),
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(report.render_phases(records))
    elif ns.command == "cache":
        if ns.json:
            print(
                json.dumps(
                    report.cache_breakdown(records) or {},
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(report.render_cache(records))
    elif ns.command == "fleet":
        if ns.json:
            print(
                json.dumps(
                    {
                        str(shard): entry
                        for shard, entry in report.fleet_rollup(
                            records
                        )
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(report.render_fleet(records))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
