"""repro.obs — one measurement system: the trace.

Two layers (see ``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.trace` — nested spans and point events to
  append-only JSONL, zero-overhead when no recorder is installed.
  Counts ride on the spans and events that cause them (cache
  activity as the ``cache`` attr of ``sweep.grid``/``shard.run``,
  lease transitions as ``fleet.*`` events);
- :mod:`repro.obs.report` — aggregation of read traces into the
  tables ``python -m repro.obs`` renders.
"""

from repro.obs.trace import (
    NULL_SPAN,
    NullRecorder,
    Span,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    disable,
    enable,
    event,
    iter_spans,
    read_trace,
    recorder,
    span,
    trace_file_path,
    tracing_active,
    use_recorder,
    validate_trace,
)

__all__ = [
    "NULL_SPAN",
    "NullRecorder",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "disable",
    "enable",
    "event",
    "iter_spans",
    "read_trace",
    "recorder",
    "span",
    "trace_file_path",
    "tracing_active",
    "use_recorder",
    "validate_trace",
]
