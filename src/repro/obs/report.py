"""Render read traces into the summary tables the CLI prints.

Pure functions over the record lists produced by
:func:`repro.obs.trace.read_trace`: aggregation here never re-opens
files, so the same helpers serve the CLI, tests, and any later
results-platform consumer.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import iter_spans
from repro.util.tables import ascii_table


def span_rollup(records: List[Dict]) -> Dict[str, Dict[str, Any]]:
    """Per-span-name aggregates over completed spans: count, total /
    max wall seconds, and the sums of the numeric result attrs the
    instrumentation annotates (``rounds``, ``messages``, ``bits``,
    ``cells``, ``errors``)."""
    rollup: Dict[str, Dict[str, Any]] = {}
    for record in iter_spans(records):
        name = record.get("name", "?")
        entry = rollup.setdefault(
            name,
            {
                "count": 0,
                "wall": 0.0,
                "max_wall": 0.0,
                "rounds": 0,
                "messages": 0,
                "bits": 0,
                "errors": 0,
            },
        )
        entry["count"] += 1
        dur = float(record.get("dur", 0.0))
        entry["wall"] += dur
        if dur > entry["max_wall"]:
            entry["max_wall"] = dur
        attrs = record.get("attrs") or {}
        for key in ("rounds", "messages", "bits"):
            value = attrs.get(key)
            if isinstance(value, (int, float)):
                entry[key] += int(value)
        if "error" in attrs:
            entry["errors"] += 1
    return rollup


def event_rollup(records: List[Dict]) -> Dict[str, int]:
    """``{event name: count}`` over the trace."""
    counts: Dict[str, int] = {}
    for record in records:
        if record.get("kind") == "event":
            name = record.get("name", "?")
            counts[name] = counts.get(name, 0) + 1
    return counts


def render_summary(records: List[Dict]) -> str:
    """The ``summary`` view: span rollup + event counts."""
    out: List[str] = []
    rollup = span_rollup(records)
    if rollup:
        out.append("spans:")
        out.append(
            ascii_table(
                ["span", "count", "wall_s", "max_s", "errors"],
                [
                    [
                        name,
                        entry["count"],
                        round(entry["wall"], 4),
                        round(entry["max_wall"], 4),
                        entry["errors"],
                    ]
                    for name, entry in sorted(rollup.items())
                ],
            )
        )
    events = event_rollup(records)
    if events:
        out.append("events:")
        out.append(
            ascii_table(
                ["event", "count"],
                [[name, n] for name, n in sorted(events.items())],
            )
        )
    if not out:
        return "empty trace"
    return "\n".join(out)


def render_phases(records: List[Dict]) -> str:
    """The ``phases`` view: per-span-name wall / rounds / messages /
    bits — the comparable round/bandwidth accounting per phase."""
    rollup = span_rollup(records)
    if not rollup:
        return "no spans in trace"
    return ascii_table(
        ["phase", "count", "wall_s", "rounds", "messages", "bits"],
        [
            [
                name,
                entry["count"],
                round(entry["wall"], 4),
                entry["rounds"],
                entry["messages"],
                entry["bits"],
            ]
            for name, entry in sorted(rollup.items())
        ],
    )


def cache_breakdown(
    records: List[Dict],
) -> Optional[Dict[str, Any]]:
    """The ``cache`` attrs of completed spans (``sweep.grid`` and
    ``shard.run`` annotate the instance-cache activity they caused)
    summed, plus a derived hit rate; ``None`` when no span carries
    one."""
    cache: Optional[Dict[str, Any]] = None
    for record in iter_spans(records):
        counts = (record.get("attrs") or {}).get("cache")
        if not isinstance(counts, dict):
            continue
        if cache is None:
            cache = {}
        for name, value in counts.items():
            cache[name] = cache.get(name, 0) + value
    if cache is None:
        return None
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    lookups = hits + misses
    cache["hit_rate"] = (
        round(hits / lookups, 4) if lookups else 0.0
    )
    return cache


def render_cache(records: List[Dict]) -> str:
    cache = cache_breakdown(records)
    if cache is None:
        return "no cache metrics in trace"
    return ascii_table(
        ["cache metric", "value"],
        [[name, value] for name, value in sorted(cache.items())],
    )


def fleet_rollup(
    records: List[Dict],
) -> List[Tuple[Any, Dict[str, int]]]:
    """Per-shard fleet lease activity from ``fleet.*`` events:
    claims, reclaims, heartbeats, releases, losses."""
    shards: Dict[Any, Dict[str, int]] = {}
    for record in records:
        if record.get("kind") != "event":
            continue
        name = record.get("name", "")
        if not name.startswith("fleet."):
            continue
        attrs = record.get("attrs") or {}
        shard = attrs.get("shard", "?")
        entry = shards.setdefault(
            shard,
            {
                "claims": 0,
                "reclaims": 0,
                "heartbeats": 0,
                "releases": 0,
                "lost": 0,
            },
        )
        key = {
            "fleet.claim": "claims",
            "fleet.reclaim": "reclaims",
            "fleet.heartbeat": "heartbeats",
            "fleet.release": "releases",
            "fleet.lease_lost": "lost",
        }.get(name)
        if key is not None:
            entry[key] += 1
    # Numeric ids in numeric order; the "?" placeholder (an event
    # without a shard attr) and any other non-int id after them.
    return sorted(
        shards.items(),
        key=lambda item: (
            (0, item[0])
            if isinstance(item[0], int)
            else (1, str(item[0]))
        ),
    )


def render_fleet(records: List[Dict]) -> str:
    rollup = fleet_rollup(records)
    if not rollup:
        return "no fleet events in trace"
    return ascii_table(
        [
            "shard",
            "claims",
            "reclaims",
            "heartbeats",
            "releases",
            "lost",
        ],
        [
            [
                shard,
                entry["claims"],
                entry["reclaims"],
                entry["heartbeats"],
                entry["releases"],
                entry["lost"],
            ]
            for shard, entry in rollup
        ],
    )
