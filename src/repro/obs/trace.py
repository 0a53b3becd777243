"""Structured event tracing: hierarchical spans and a trace buffer.

While :mod:`repro.obs.metrics` answers *how much* (counters, gauges,
duration histograms), tracing answers *what happened, in order*: every
instrumented stage becomes a :class:`TraceSpan` with a span id, a parent
id, and monotonic start/end timestamps, and point-in-time facts (an
active-set round, a suppressed replan, a constraint violation) become
:class:`TraceEvent` entries attached to the innermost open span.  One
controller run therefore yields one timeline: the replan spans in
sequence, each carrying its hysteresis/dwell decision as events.

Tracing follows the same contract as the metrics switch: **off by
default, and one module-attribute check per call site while off**.  It
is toggled independently of metrics (:func:`enable_tracing`), so a
caller can record a timeline without paying for histograms or vice
versa.  :class:`repro.obs.runtime.timed` and
:class:`~repro.obs.runtime.record_run` open spans automatically while
tracing is on, so all existing instrumentation points show up in the
timeline without new call sites.

Two interchange formats are supported, both lossless:

- **JSONL** — a header line followed by one JSON object per span/event;
  the native on-disk format (``repro trace`` writes it, ``repro
  dashboard`` reads it).
- **Chrome trace** — the ``chrome://tracing`` / Perfetto JSON array
  format.  Spans become complete (``"ph": "X"``) events, trace events
  become instants (``"ph": "i"``); exact float timestamps and span
  topology ride along in ``args`` so the round-trip back through
  :meth:`TraceBuffer.from_chrome_trace` is exact.
"""

from __future__ import annotations

import itertools
import json
import pathlib
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Mapping, Optional, Union

from repro.errors import ConfigurationError

#: Version stamp embedded in exported traces.
TRACE_SCHEMA_VERSION = 1

#: Default buffer bounds.  Past the cap, new spans/events are counted as
#: dropped rather than recorded, bounding memory for long campaigns
#: (a settle run alone can take ~70k simulation steps).
MAX_TRACE_SPANS = 100_000
MAX_TRACE_EVENTS = 100_000

_JSONL_HEADER_KIND = "repro.trace"

#: The one span-id allocator of the process: every buffer and sink
#: draws from it, so an id names one span even across buffers
#: (``next`` on a count is atomic under the GIL).
_span_ids = itertools.count(1)


@dataclass
class TraceSpan:
    """One timed, named region of a run.

    Attributes
    ----------
    span_id:
        Unique (per process) integer id, assigned at begin time.
    parent_id:
        Span id of the enclosing open span, or ``None`` for a root.
    name:
        Stage name (same vocabulary as ``obs.timed`` spans).
    start, end:
        Monotonic timestamps (``perf_counter`` seconds); ``end`` is
        ``None`` while the span is open.
    attributes:
        JSON-safe key/value annotations (inputs, decisions, outcomes).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Seconds from start to end (``None`` while open)."""
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TraceSpan":
        return cls(
            span_id=int(data["span_id"]),
            parent_id=(
                None if data.get("parent_id") is None
                else int(data["parent_id"])
            ),
            name=data["name"],
            start=float(data["start"]),
            end=(None if data.get("end") is None else float(data["end"])),
            attributes=dict(data.get("attributes", {})),
        )


@dataclass
class TraceEvent:
    """One point-in-time structured fact, attached to a span (or root).

    The ``name`` is dotted and stable (``constraint.violation``,
    ``replan.suppressed``, ``closed_form.active_set_round``); consumers
    filter on it.
    """

    name: str
    time: float
    span_id: Optional[int] = None
    attributes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "type": "event",
            "name": self.name,
            "time": self.time,
            "span_id": self.span_id,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TraceEvent":
        return cls(
            name=data["name"],
            time=float(data["time"]),
            span_id=(
                None if data.get("span_id") is None else int(data["span_id"])
            ),
            attributes=dict(data.get("attributes", {})),
        )


def _check_schema(header: Mapping) -> None:
    if header.get("schema") != TRACE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported trace schema {header.get('schema')!r} "
            f"(expected {TRACE_SCHEMA_VERSION})"
        )


class TraceBuffer:
    """In-memory store of spans and events, with bounded capacity."""

    def __init__(
        self,
        max_spans: int = MAX_TRACE_SPANS,
        max_events: int = MAX_TRACE_EVENTS,
    ) -> None:
        if max_spans <= 0 or max_events <= 0:
            raise ConfigurationError(
                "trace buffer capacities must be positive"
            )
        self.max_spans = max_spans
        self.max_events = max_events
        self.spans: list[TraceSpan] = []
        self.events: list[TraceEvent] = []
        self.dropped_spans = 0
        self.dropped_events = 0

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def start_span(
        self,
        name: str,
        parent_id: Optional[int] = None,
        attributes: Optional[Mapping] = None,
        start: Optional[float] = None,
    ) -> Optional[TraceSpan]:
        """Open a span; returns ``None`` when the buffer is full."""
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return None
        span = TraceSpan(
            span_id=next(_span_ids),
            parent_id=parent_id,
            name=name,
            start=perf_counter() if start is None else start,
            attributes=dict(attributes) if attributes else {},
        )
        self.spans.append(span)
        return span

    def add_event(
        self,
        name: str,
        span_id: Optional[int] = None,
        attributes: Optional[Mapping] = None,
        time: Optional[float] = None,
    ) -> Optional[TraceEvent]:
        """Record an instant event; returns ``None`` when full."""
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return None
        event = TraceEvent(
            name=name,
            time=perf_counter() if time is None else time,
            span_id=span_id,
            attributes=dict(attributes) if attributes else {},
        )
        self.events.append(event)
        return event

    def clear(self) -> None:
        """Drop every span and event (ids keep increasing)."""
        self.spans.clear()
        self.events.clear()
        self.dropped_spans = 0
        self.dropped_events = 0

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def spans_named(self, name: str) -> list[TraceSpan]:
        """All spans with exactly this name, in start order."""
        return [s for s in self.spans if s.name == name]

    def events_named(self, name: str) -> list[TraceEvent]:
        """All events with exactly this name, in record order."""
        return [e for e in self.events if e.name == name]

    def children(self, span_id: int) -> list[TraceSpan]:
        """Direct child spans of ``span_id``."""
        return [s for s in self.spans if s.parent_id == span_id]

    def summary(self) -> dict:
        """JSON-safe shape summary (used by the bench artifact)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "spans": len(self.spans),
            "events": len(self.events),
            "dropped_spans": self.dropped_spans,
            "dropped_events": self.dropped_events,
            "violations": len(self.events_named("constraint.violation")),
        }

    # ------------------------------------------------------------------ #
    # JSONL
    # ------------------------------------------------------------------ #

    def to_jsonl(self) -> str:
        """The whole buffer as JSON Lines (header + one line per item)."""
        header = {
            "kind": _JSONL_HEADER_KIND,
            "schema": TRACE_SCHEMA_VERSION,
            "dropped_spans": self.dropped_spans,
            "dropped_events": self.dropped_events,
        }
        lines = [json.dumps(header)]
        lines.extend(json.dumps(s.to_dict()) for s in self.spans)
        lines.extend(json.dumps(e.to_dict()) for e in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceBuffer":
        """Parse :meth:`to_jsonl` output back into a buffer."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ConfigurationError("empty trace file")
        header = json.loads(lines[0])
        if header.get("kind") != _JSONL_HEADER_KIND:
            raise ConfigurationError(
                f"not a repro trace file (kind={header.get('kind')!r})"
            )
        _check_schema(header)
        buffer = cls()
        buffer.dropped_spans = int(header.get("dropped_spans", 0))
        buffer.dropped_events = int(header.get("dropped_events", 0))
        for line in lines[1:]:
            data = json.loads(line)
            kind = data.get("type")
            if kind == "span":
                buffer.spans.append(TraceSpan.from_dict(data))
            elif kind == "event":
                buffer.events.append(TraceEvent.from_dict(data))
            else:
                raise ConfigurationError(
                    f"unknown trace record type {kind!r}"
                )
        return buffer

    # ------------------------------------------------------------------ #
    # Chrome trace (chrome://tracing, Perfetto)
    # ------------------------------------------------------------------ #

    def to_chrome_trace(self) -> dict:
        """The buffer in Chrome's trace-event JSON format.

        Timestamps are microseconds (as the format requires); the exact
        float seconds and span topology ride along in ``args`` so
        :meth:`from_chrome_trace` reconstructs the buffer losslessly.
        Open spans export with zero duration and ``"open": true``.
        """
        trace_events = []
        for s in self.spans:
            end = s.start if s.end is None else s.end
            args = {
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "t0": s.start,
                "t1": s.end,
                "attributes": dict(s.attributes),
            }
            if s.end is None:
                args["open"] = True
            trace_events.append(
                {
                    "name": s.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": s.start * 1e6,
                    "dur": (end - s.start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        for e in self.events:
            trace_events.append(
                {
                    "name": e.name,
                    "cat": "event",
                    "ph": "i",
                    "ts": e.time * 1e6,
                    "s": "t",
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "span_id": e.span_id,
                        "t0": e.time,
                        "attributes": dict(e.attributes),
                    },
                }
            )
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "schema": TRACE_SCHEMA_VERSION,
                "dropped_spans": self.dropped_spans,
                "dropped_events": self.dropped_events,
            },
        }

    @classmethod
    def from_chrome_trace(cls, document: Mapping) -> "TraceBuffer":
        """Rebuild a buffer from :meth:`to_chrome_trace` output."""
        if not isinstance(document, Mapping):
            raise ConfigurationError("chrome trace must be a mapping")
        other = document.get("otherData", {})
        _check_schema(other)
        buffer = cls()
        buffer.dropped_spans = int(other.get("dropped_spans", 0))
        buffer.dropped_events = int(other.get("dropped_events", 0))
        for entry in document.get("traceEvents", []):
            args = entry.get("args", {})
            named = {**args, "name": entry["name"]}
            if entry.get("ph") == "X":
                buffer.spans.append(TraceSpan.from_dict(
                    {**named, "start": args["t0"], "end": args.get("t1")}
                ))
            elif entry.get("ph") == "i":
                buffer.events.append(TraceEvent.from_dict(
                    {**named, "time": args["t0"]}
                ))
            else:
                raise ConfigurationError(
                    f"unsupported chrome trace phase {entry.get('ph')!r}"
                )
        return buffer


# ---------------------------------------------------------------------- #
# Rotating on-disk JSONL export
# ---------------------------------------------------------------------- #


class RotatingTraceExporter:
    """Append-only on-disk JSONL trace sink with size-based rotation.

    Long-running processes (the serving daemon) cannot hold every span
    in memory, so they flush closed spans/events here in batches.  The
    active file is ``path``; when it reaches ``max_bytes`` the *next*
    batch triggers a rotation — ``path`` becomes ``path.1``, ``path.1``
    becomes ``path.2``, and so on, with at most ``keep_files`` rotated
    files retained.  Two invariants make rotation lossless:

    - rotation only ever happens **between** write batches, never in the
      middle of one, so a record is never split across files;
    - every file begins with its own JSONL header line, so each rotated
      file independently round-trips through
      :meth:`TraceBuffer.from_jsonl` (and :func:`read_rotated_trace`
      merges the whole set back into one buffer).
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        max_bytes: int = 1_000_000,
        keep_files: int = 3,
    ) -> None:
        if max_bytes <= 0:
            raise ConfigurationError("max_bytes must be positive")
        if keep_files < 1:
            raise ConfigurationError("keep_files must be at least 1")
        self.path = pathlib.Path(path)
        self.max_bytes = max_bytes
        self.keep_files = keep_files
        self.rotations = 0

    def files(self) -> list[pathlib.Path]:
        """Every existing file of the set, oldest first."""
        rotated = []
        for i in range(self.keep_files, 0, -1):
            candidate = self.path.with_name(f"{self.path.name}.{i}")
            if candidate.exists():
                rotated.append(candidate)
        if self.path.exists():
            rotated.append(self.path)
        return rotated

    def _rotate(self) -> None:
        oldest = self.path.with_name(f"{self.path.name}.{self.keep_files}")
        if oldest.exists():
            oldest.unlink()
        for i in range(self.keep_files - 1, 0, -1):
            src = self.path.with_name(f"{self.path.name}.{i}")
            if src.exists():
                src.rename(self.path.with_name(f"{self.path.name}.{i + 1}"))
        if self.path.exists():
            self.path.rename(self.path.with_name(f"{self.path.name}.1"))
        self.rotations += 1

    def write(
        self,
        spans: Iterable[TraceSpan] = (),
        events: Iterable[TraceEvent] = (),
    ) -> pathlib.Path:
        """Append one batch of records; returns the file written to."""
        lines = [json.dumps(s.to_dict()) for s in spans]
        lines.extend(json.dumps(e.to_dict()) for e in events)
        if not lines:
            return self.path
        if (
            self.path.exists()
            and self.path.stat().st_size >= self.max_bytes
        ):
            self._rotate()
        if not self.path.exists() or self.path.stat().st_size == 0:
            lines.insert(0, TraceBuffer().to_jsonl().rstrip("\n"))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return self.path

    def export_buffer(self, buffer: TraceBuffer) -> pathlib.Path:
        """Write every record of ``buffer`` as one batch."""
        return self.write(buffer.spans, buffer.events)


def read_rotated_trace(
    path: Union[str, pathlib.Path], keep_files: int = 16
) -> TraceBuffer:
    """Merge a :class:`RotatingTraceExporter` file set into one buffer.

    Reads ``path`` plus every ``path.N`` rotation (oldest first, so the
    merged record order matches write order) and returns a single
    :class:`TraceBuffer`.  Raises :class:`ConfigurationError` when no
    file of the set exists or any file fails the trace-schema check.
    """
    exporter = RotatingTraceExporter(path, keep_files=keep_files)
    files = exporter.files()
    if not files:
        raise ConfigurationError(f"no trace files at {path}")
    merged = TraceBuffer()
    for file in files:
        piece = TraceBuffer.from_jsonl(file.read_text())
        merged.spans.extend(piece.spans)
        merged.events.extend(piece.events)
        merged.dropped_spans += piece.dropped_spans
        merged.dropped_events += piece.dropped_events
    return merged


# ---------------------------------------------------------------------- #
# Module-level tracer state (same contract as the metrics switch)
# ---------------------------------------------------------------------- #

_tracing: bool = False
_buffer: TraceBuffer = TraceBuffer()
#: This thread's or asyncio task's open spans, innermost last.
_open: ContextVar[tuple] = ContextVar("repro_obs_open_spans", default=())


def unwind(var: ContextVar, token: Token, pushed: tuple) -> None:
    """Pop ``pushed[-1]``, the entry ``token = var.set(pushed)`` added:
    one ``var.reset`` when it is innermost.  Otherwise (out of order, or
    from another context) count ``obs.span_mismatch`` and remove only
    this entry; an entry already cleared is left alone."""
    current = var.get()
    try:
        var.reset(token)
    except (ValueError, RuntimeError):  # token of another context
        clean = False
    else:
        if current is pushed:
            return
        var.set(current)  # undo: the stack changed since the push
        clean = True
    entry = pushed[-1]
    kept = tuple(e for e in current if e is not entry)
    if len(kept) < len(current):
        var.set(kept)
        clean = clean and current[-1] is entry
    if not clean:
        from repro.obs.runtime import get_registry

        get_registry().counter("obs.span_mismatch").inc()


class OpenSpan:
    """An open-span stack entry, from :func:`begin_span` to
    :func:`end_span`: the :class:`TraceSpan` (``None`` if a full buffer
    dropped it) and the parent id of spans opened inside it."""

    __slots__ = ("span", "child_parent_id", "sink", "_token", "_pushed")

    def __init__(self, span, child_parent_id, sink) -> None:
        self.span: Optional[TraceSpan] = span
        self.child_parent_id: Optional[int] = child_parent_id
        self.sink = sink


def tracing_enabled() -> bool:
    """Whether span/event recording is currently on."""
    return _tracing


def enable_tracing(buffer: Optional[TraceBuffer] = None) -> TraceBuffer:
    """Turn tracing on (optionally into a caller-owned buffer).

    Independent of the metrics switch; idempotent.  Returns the buffer
    now receiving spans and events.
    """
    global _tracing, _buffer
    if buffer is not None:
        _buffer = buffer
    _tracing = True
    return _buffer


def disable_tracing() -> None:
    """Turn tracing off and clear this thread's (or task's) open spans;
    the buffer keeps its accumulated data."""
    global _tracing
    _tracing = False
    _open.set(())


@contextmanager
def suspended_tracing():
    """Temporarily stop recording spans and events.

    Unlike :func:`disable_tracing` this leaves open spans intact, so it
    is safe inside an enclosing :func:`span` — used by the benchmarks to
    time hot loops without the per-event recording cost.
    """
    global _tracing
    was = _tracing
    _tracing = False
    try:
        yield
    finally:
        _tracing = was


def get_trace_buffer() -> TraceBuffer:
    """The buffer spans are (or would be) recorded into."""
    return _buffer


def reset_trace() -> None:
    """Clear the active buffer and this thread's (or task's) open spans."""
    _buffer.clear()
    _open.set(())


def current_span_id() -> Optional[int]:
    """Id of this task's innermost recorded open span, if any."""
    stack = _open.get()
    return stack[-1].child_parent_id if stack else None


def begin_span(
    name: str,
    attributes: Optional[Mapping] = None,
    sink: Optional[Callable[[TraceSpan], None]] = None,
) -> Optional[OpenSpan]:
    """Open a span under this thread's (or task's) innermost open span.

    Without a ``sink`` it goes into the active buffer, and this is a
    no-op (``None``) while tracing is off.  With one it always records,
    and ``sink`` gets the span when it ends (the serving daemon's tail).
    Prefer :class:`span` (or ``obs.timed``) over calling this directly.
    """
    if sink is None and not _tracing:
        return None
    stack = _open.get()
    parent_id = stack[-1].child_parent_id if stack else None
    if sink is None:
        span_ = _buffer.start_span(name, parent_id, attributes)
    else:
        span_ = TraceSpan(next(_span_ids), parent_id, name, perf_counter(),
                          attributes=dict(attributes or {}))
    handle = OpenSpan(
        span_, parent_id if span_ is None else span_.span_id, sink
    )
    handle._pushed = stack + (handle,)
    handle._token = _open.set(handle._pushed)
    return handle


def end_span(handle: Optional[OpenSpan], **attributes) -> None:
    """Close the span ``handle`` opened (a no-op for ``None``)."""
    if handle is None:
        return
    span_ = handle.span
    if span_ is not None:
        span_.end = perf_counter()
        if attributes:
            span_.attributes.update(attributes)
        if handle.sink is not None:
            handle.sink(span_)
    pushed, handle._pushed = handle._pushed, None  # no self-cycle
    unwind(_open, handle._token, pushed)


class span:
    """Scoped trace span with attributes; context manager.

    Unlike :class:`repro.obs.runtime.timed` this records no histogram —
    it exists for call sites that want a timeline entry with structured
    attributes regardless of the metrics switch.  ``sink`` is as for
    :func:`begin_span`; ``handle`` is the :class:`OpenSpan` while open.
    """

    __slots__ = ("name", "attributes", "sink", "handle")

    def __init__(self, name: str, sink=None, **attributes) -> None:
        self.name = name
        self.attributes = attributes
        self.sink = sink
        self.handle: Optional[OpenSpan] = None

    def __enter__(self) -> "span":
        if _tracing or self.sink is not None:
            self.handle = begin_span(self.name, self.attributes, self.sink)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        handle, self.handle = self.handle, None
        end_span(handle)
        return False


def add_event(name: str, **attributes) -> None:
    """Record a structured instant event on the innermost open span.

    No-op while tracing is disabled — this is the call-site vocabulary
    for watchdog violations, replan decisions, and solver milestones.
    """
    if not _tracing:
        return
    _buffer.add_event(
        name, span_id=current_span_id(), attributes=attributes or None
    )


def set_span_attributes(**attributes) -> None:
    """Attach attributes to this task's innermost open span, if any."""
    if not _tracing:
        return
    stack = _open.get()
    if stack and stack[-1].span is not None:
        stack[-1].span.attributes.update(attributes)
