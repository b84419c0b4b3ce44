"""The metrics registry: typed counters, gauges, and timers.

One process-global :class:`MetricsRegistry` (:func:`registry`) that
every instrumented subsystem publishes into under a dotted-name
convention::

    cache.hits, cache.misses, cache.csr_builds, cache.square_builds
    shard.cells_executed, shard.cells_resumed, shard.repairs
    fleet.claims, fleet.reclaims, fleet.heartbeats, fleet.releases
    run.rounds, run.messages, run.bits
    process.peak_rss_mb (gauge)

Unlike tracing, the registry is always on — counters are plain int
adds behind one lock, far off any per-round hot path (publishers are
per-run / per-cell / per-lease-event).  Snapshots are plain dicts,
embeddable in a trace (``TraceRecorder.metrics``).

Merging (:meth:`MetricsRegistry.merge_snapshot`) combines snapshots
from multiple workers or shards: counters add, gauges keep the
maximum (their publishers record high-water marks, e.g. peak RSS),
timers combine count/total/max.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, Optional

try:  # POSIX-only; RSS sampling degrades to 0.0 elsewhere
    import resource
except ImportError:  # pragma: no cover - linux container has it
    resource = None


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-set float; merged across workers by maximum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (peak-RSS style gauges)."""
        value = float(value)
        if value > self.value:
            self.value = value


class Timer:
    """Accumulated wall-clock observations (count/total/max)."""

    __slots__ = ("name", "count", "total", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def time(self) -> "_Timing":
        return _Timing(self)


class _Timing:
    """``with timer.time(): ...`` context manager."""

    __slots__ = ("_timer", "_t0")

    def __init__(self, timer: Timer):
        self._timer = timer
        self._t0 = 0.0

    def __enter__(self) -> "_Timing":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timer.observe(time.perf_counter() - self._t0)


class MetricsRegistry:
    """Thread-safe named instrument store.

    Instruments are created on first access and live for the
    registry's lifetime; a name is one kind only (asking for a
    counter named like an existing gauge raises).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("timer", self._timers),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a "
                    f"{other_kind}"
                )

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_unique(name, "counter")
                instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_unique(name, "gauge")
                instrument = self._gauges[name] = Gauge(name)
        return instrument

    def timer(self, name: str) -> Timer:
        with self._lock:
            instrument = self._timers.get(name)
            if instrument is None:
                self._check_unique(name, "timer")
                instrument = self._timers[name] = Timer(name)
        return instrument

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()

    # -- snapshots and merging -------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view: ``{"counters": {...}, "gauges": {...},
        "timers": {name: {count, total, max}}}`` — JSON-ready."""
        with self._lock:
            return {
                "counters": {
                    name: c.value
                    for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value
                    for name, g in sorted(self._gauges.items())
                },
                "timers": {
                    name: {
                        "count": t.count,
                        "total": t.total,
                        "max": t.max,
                    }
                    for name, t in sorted(self._timers.items())
                },
            }

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one
        (counters add, gauges max, timers combine) — how per-worker
        registries aggregate into one report."""
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(int(value))
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set_max(float(value))
        for name, stats in (snapshot.get("timers") or {}).items():
            timer = self.timer(name)
            timer.count += int(stats.get("count", 0))
            timer.total += float(stats.get("total", 0.0))
            timer.max = max(timer.max, float(stats.get("max", 0.0)))

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters)
                + len(self._gauges)
                + len(self._timers)
            )


def merge_snapshots(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Pure-function form of snapshot merging (used by the report
    layer over per-worker ``metrics`` trace records)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


# ----------------------------------------------------------------------
# the process-global registry

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry every subsystem publishes into."""
    return _REGISTRY


def peak_rss_mb() -> float:
    """Process-wide peak resident set size in MiB (0.0 if unknown).
    A monotone high-water mark — sample *before* a heavier phase if
    you want the lean phase's own peak."""
    if resource is None:
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0
    return peak / divisor


def sample_peak_rss(
    target: Optional[MetricsRegistry] = None,
    name: str = "process.peak_rss_mb",
) -> float:
    """Record the current peak RSS into ``target`` (the global
    registry by default) as a max-keeping gauge; returns the MiB
    figure."""
    value = peak_rss_mb()
    reg = target if target is not None else _REGISTRY
    reg.gauge(name).set_max(value)
    return value
