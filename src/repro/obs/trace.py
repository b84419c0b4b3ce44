"""The trace layer: nested spans and point events to append-only JSONL.

One process-local :class:`TraceRecorder` (installed with
:func:`enable` / :func:`use_recorder`) receives every span and event
emitted through the module-level :func:`span` / :func:`event`
helpers.  The default is *no recorder at all*: both helpers check one
module global and return immediately, so instrumented hot paths pay a
single ``is None`` test when tracing is off.  Tracing is strictly
observational — it reads the monotonic clock and appends to a file,
never touches RNG streams, dict iteration order, or any value that
feeds a fingerprint or digest (pinned by the determinism guard in
``tests/test_obs.py``).

Record kinds (one JSON object per line; schema
:data:`TRACE_SCHEMA_VERSION`)::

    {"kind": "meta",  "schema": 1, "pid": ..., "worker": ..., "t": ...}
    {"kind": "span",  "phase": "B", "id": 7, "parent": 3,
     "name": "sweep.cell", "t": ..., "attrs": {...}}
    {"kind": "span",  "phase": "E", "id": 7, "name": "sweep.cell",
     "t": ..., "dur": ..., "attrs": {...}}
    {"kind": "span",  "phase": "X", "id": 9, "parent": 3,
     "name": "kernel.try_phases", "t": ..., "dur": ..., "attrs": {...}}
    {"kind": "event", "name": "fleet.claim", "t": ..., "attrs": {...}}

``B``/``E`` bracket a nested span; ``X`` is a *complete* span written
in one record at exit (used by instrumentation sites that cannot wrap
their body in a ``with`` block).  ``t`` is seconds on the process's
``time.perf_counter`` clock — meaningful for durations and ordering
within one trace file, not across hosts.

Readers must tolerate torn trailing lines (a killed worker mid-write)
— :func:`read_trace` reuses the keep-valid-lines repair idiom of
:func:`repro.exec.shards._read_checkpoint` — and a *trace directory*
holding one file per worker process.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

TRACE_SCHEMA_VERSION = 1

#: Record kinds a valid trace may contain.
RECORD_KINDS = ("meta", "span", "event")

#: Span phases: begin, end, complete (single-record span).
SPAN_PHASES = ("B", "E", "X")


class Span:
    """One live span; a context manager that writes B at entry and E
    at exit.  :meth:`annotate` adds attrs that land on the E record
    (measured results: rounds, status, counts)."""

    __slots__ = ("_recorder", "name", "span_id", "parent", "_attrs",
                 "_exit_attrs", "_t0")

    def __init__(self, recorder, name, span_id, parent, attrs):
        self._recorder = recorder
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self._attrs = attrs
        self._exit_attrs: Dict[str, Any] = {}
        self._t0 = 0.0

    def annotate(self, **attrs) -> "Span":
        self._exit_attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._t0 = self._recorder._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._exit_attrs.setdefault("error", exc_type.__name__)
        self._recorder._exit(self)


class _NullSpan:
    """The span of the no-recorder default: every operation is a
    no-op.  A single shared instance is returned by :func:`span`
    when tracing is off, so the off path allocates nothing."""

    __slots__ = ()

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class NullRecorder:
    """An explicitly-installed recorder that drops everything.

    Distinct from the *no recorder* default so tests can pin that the
    instrumented paths behave identically whether tracing is absent,
    explicitly nulled, or live.
    """

    def span(self, name: str, attrs: Optional[Dict] = None) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, attrs: Optional[Dict] = None) -> None:
        return None

    def complete(self, name, t0, attrs=None) -> None:
        return None

    def clock(self) -> float:
        return time.perf_counter()

    def close(self) -> None:
        return None


class TraceRecorder:
    """Appends trace records to one JSONL file (thread-safe).

    The recorder is *process-local*: sweep/fleet workers in other
    processes do not inherit it (their cells simply go untraced, or
    they install their own recorder into the shared trace directory —
    see :func:`trace_file_path`).  Writes are line-buffered appends;
    a kill mid-write tears at most the final line, which
    :func:`read_trace` repairs by dropping it.
    """

    def __init__(self, path: str, worker: Optional[str] = None):
        self.path = path
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._handle = open(path, "a", encoding="utf-8")
        self._clock = time.perf_counter
        self._write(
            {
                "kind": "meta",
                "schema": TRACE_SCHEMA_VERSION,
                "pid": os.getpid(),
                "worker": worker,
                "t": self._clock(),
            }
        )

    # -- low-level record IO --------------------------------------------

    def clock(self) -> float:
        return self._clock()

    def _write(self, record: Dict) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _alloc_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    # -- spans and events ------------------------------------------------

    def span(self, name: str, attrs: Optional[Dict] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        return Span(self, name, self._alloc_id(), parent, attrs or {})

    def _enter(self, span: Span) -> float:
        t0 = self._clock()
        record = {
            "kind": "span",
            "phase": "B",
            "id": span.span_id,
            "name": span.name,
            "t": t0,
        }
        if span.parent is not None:
            record["parent"] = span.parent
        if span._attrs:
            record["attrs"] = span._attrs
        self._write(record)
        self._stack().append(span.span_id)
        return t0

    def _exit(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        t1 = self._clock()
        record = {
            "kind": "span",
            "phase": "E",
            "id": span.span_id,
            "name": span.name,
            "t": t1,
            "dur": t1 - span._t0,
        }
        if span._exit_attrs:
            record["attrs"] = span._exit_attrs
        self._write(record)

    def complete(
        self, name: str, t0: float, attrs: Optional[Dict] = None
    ) -> None:
        """A whole span in one record ("X" phase): entered at ``t0``
        (a value previously read from :meth:`clock`), exited now.
        The instrumentation form for sites that cannot restructure
        their body into a ``with`` block."""
        stack = self._stack()
        t1 = self._clock()
        record = {
            "kind": "span",
            "phase": "X",
            "id": self._alloc_id(),
            "name": name,
            "t": t0,
            "dur": t1 - t0,
        }
        if stack:
            record["parent"] = stack[-1]
        if attrs:
            record["attrs"] = attrs
        self._write(record)

    def event(self, name: str, attrs: Optional[Dict] = None) -> None:
        record = {
            "kind": "event",
            "name": name,
            "t": self._clock(),
        }
        stack = self._stack()
        if stack:
            record["parent"] = stack[-1]
        if attrs:
            record["attrs"] = attrs
        self._write(record)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


# ----------------------------------------------------------------------
# the process-local active recorder

RecorderLike = Union[TraceRecorder, NullRecorder]

#: The active recorder; ``None`` (the default) means tracing is off
#: and the module-level helpers are near-free.
_RECORDER: Optional[RecorderLike] = None

#: The recorder :func:`enable` last installed; it owns it, so it closes
#: it when replacing it.  A :class:`use_recorder` one stays the caller's.
_ENABLED: Optional[TraceRecorder] = None


def recorder() -> Optional[RecorderLike]:
    """The active recorder, ``None`` when tracing is off."""
    return _RECORDER


def tracing_active() -> bool:
    """True when a *live* recorder is installed (a
    :class:`NullRecorder` counts as inactive: nothing is written)."""
    return isinstance(_RECORDER, TraceRecorder)


def trace_file_path(trace_dir: str, worker: Optional[str] = None) -> str:
    """The per-process trace file inside a shared trace directory
    (unique per pid + worker, so fleet workers never interleave
    writes into one file)."""
    os.makedirs(trace_dir, exist_ok=True)
    tag = f"-{worker}" if worker else ""
    safe = "".join(
        ch if (ch.isalnum() or ch in "-_.") else "_" for ch in tag
    )
    return os.path.join(trace_dir, f"trace-{os.getpid()}{safe}.jsonl")


def enable(
    path: str, worker: Optional[str] = None
) -> TraceRecorder:
    """Install a :class:`TraceRecorder` writing to ``path`` (a file,
    or a directory — then a per-process file inside it) as this
    process's active recorder.  Returns it; :func:`disable` (or
    installing another) detaches it.  An active recorder that
    ``enable`` itself installed is closed first."""
    global _RECORDER, _ENABLED
    path = os.fspath(path)
    if os.path.isdir(path) or path.endswith(os.sep):
        path = trace_file_path(path, worker=worker)
    rec = TraceRecorder(path, worker=worker)
    if _RECORDER is not None and _RECORDER is _ENABLED:
        _RECORDER.close()
    _RECORDER = _ENABLED = rec
    return rec


def disable() -> None:
    """Detach (and close) the active recorder, restoring the
    zero-overhead default."""
    global _RECORDER, _ENABLED
    rec = _RECORDER
    _RECORDER = None
    if rec is _ENABLED:
        _ENABLED = None
    if rec is not None:
        rec.close()


class use_recorder:
    """Context manager installing ``rec`` for the block::

        with use_recorder(TraceRecorder(path)):
            ...

    Restores the previous recorder on exit (without closing either —
    ownership stays with the caller)."""

    def __init__(self, rec: Optional[RecorderLike]):
        self._rec = rec
        self._prev: Optional[RecorderLike] = None

    def __enter__(self) -> Optional[RecorderLike]:
        global _RECORDER
        self._prev = _RECORDER
        _RECORDER = self._rec
        return self._rec

    def __exit__(self, exc_type, exc, tb) -> None:
        global _RECORDER
        _RECORDER = self._prev


# -- the module-level emit helpers (the instrumentation surface) -------


def span(name: str, **attrs) -> Union[Span, _NullSpan]:
    """Open a (nested) span::

        with span("sweep.cell", workload=key, seed=seed) as sp:
            ...
            sp.annotate(rounds=result.rounds)

    With no recorder installed this returns the shared no-op span.
    """
    rec = _RECORDER
    if rec is None:
        return NULL_SPAN
    return rec.span(name, attrs)


def event(name: str, **attrs) -> None:
    """Emit a point event (no duration)."""
    rec = _RECORDER
    if rec is not None:
        rec.event(name, attrs)


# ----------------------------------------------------------------------
# reading and validating traces


def _trace_files(path: str) -> List[str]:
    if os.path.isdir(path):
        return sorted(
            os.path.join(path, name)
            for name in os.listdir(path)
            if name.endswith(".jsonl")
        )
    return [path]


def read_trace(
    path: str, strict: bool = False
) -> List[Dict[str, Any]]:
    """Every valid record of a trace file — or of every ``*.jsonl``
    file in a trace directory — in file order.

    Tolerates torn trailing lines and interleaved garbage exactly like
    the shard-checkpoint reader: invalid lines are dropped, valid ones
    kept.  ``strict=True`` raises :class:`ValueError` on the first
    damaged line instead (for tests that assert a clean write path).
    """
    records: List[Dict[str, Any]] = []
    for file_path in _trace_files(path):
        with open(file_path, "r", encoding="utf-8") as handle:
            content = handle.read()
        lines = content.splitlines()
        torn_tail = bool(content) and not content.endswith("\n")
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except ValueError:
                if strict and not (
                    torn_tail and index == len(lines) - 1
                ):
                    raise ValueError(
                        f"damaged trace line {index + 1} in "
                        f"{file_path}"
                    ) from None
                continue
            records.append(record)
    return records


def validate_trace(
    records: List[Dict[str, Any]]
) -> List[str]:
    """Schema problems of an already-read trace (empty = valid).

    Checked per record: a known ``kind``; spans carry ``phase``/
    ``id``/``name``/``t`` (plus ``dur`` on E/X); events carry
    ``name``/``t``; meta carries a supported ``schema``.
    Cross-record: every E closes a B of the same id, and no B is left
    unclosed.  Span ids restart at 1 with every recorder, so ids are
    matched per source: the records after one ``meta`` record (each
    recorder writes one when it opens its file).
    """
    problems: List[str] = []
    open_spans: Dict[Tuple[int, int], str] = {}
    source = 0

    def check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    for i, record in enumerate(records):
        where = f"record {i}"
        kind = record.get("kind")
        if kind not in RECORD_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        if kind == "meta":
            source += 1
            check(
                record.get("schema") == TRACE_SCHEMA_VERSION,
                f"{where}: unsupported schema "
                f"{record.get('schema')!r}",
            )
            continue
        check(
            isinstance(record.get("name"), str),
            f"{where}: {kind} without a name",
        )
        check(
            isinstance(record.get("t"), (int, float)),
            f"{where}: {kind} without a timestamp",
        )
        if kind == "event":
            continue
        phase = record.get("phase")
        if phase not in SPAN_PHASES:
            problems.append(f"{where}: bad span phase {phase!r}")
            continue
        check(
            isinstance(record.get("id"), int),
            f"{where}: span without an id",
        )
        if phase in ("E", "X"):
            check(
                isinstance(record.get("dur"), (int, float)),
                f"{where}: {phase} span without dur",
            )
        key = (source, record.get("id"))
        if phase == "B":
            open_spans[key] = record.get("name", "?")
        elif phase == "E":
            if open_spans.pop(key, None) is None:
                problems.append(
                    f"{where}: E for span {record.get('id')} "
                    "without a matching B"
                )
    for (_, span_id), name in open_spans.items():
        problems.append(
            f"span {span_id} ({name!r}) opened but never closed"
        )
    return problems


def iter_spans(
    records: List[Dict[str, Any]]
) -> Iterator[Dict[str, Any]]:
    """Completed spans (E and X records) of a read trace."""
    for record in records:
        if record.get("kind") == "span" and record.get("phase") in (
            "E",
            "X",
        ):
            yield record
