"""Observability runtime: the enable switch, scoped timers, run records.

The whole package is built around one invariant: **when observability is
disabled (the default), every instrumentation call site costs one
module-attribute check and nothing else** — no allocation, no dictionary
lookups, no registry mutation — so instrumented hot paths (the RK4
stepper, the active-set loop, ``query_refined``) keep their tier-1
timings.  :func:`enable` flips the process into recording mode against a
:class:`~repro.obs.metrics.MetricsRegistry`.

Call-site vocabulary:

- ``with timed("selection"): ...`` — a scoped wall-clock span.  Spans
  nest: an inner span records under ``outer/inner``.  The object always
  measures (``span.duration`` is valid even when disabled, two
  ``perf_counter`` calls), but only *records* when enabled — so code can
  use it as its one stopwatch API.
- ``@timed("consolidation/preprocess")`` — same thing as a decorator.
- ``with record_run("optimizer.solve", inputs={...}) as rec: ...`` —
  captures one run end to end; yields ``None`` when disabled.  While a
  record is active, completed spans attribute their duration to its
  ``stages`` map and :func:`count` increments land in its ``counters``
  map (innermost record wins when records nest).
- ``count(name)`` / ``set_gauge(name, v)`` / ``observe(name, v)`` —
  fire-and-forget instrument updates.

The switch and the registry are process-global; the stacks of open spans
and records are :class:`contextvars.ContextVar` tuples, one per thread and
asyncio task, so concurrent work never shares paths, parents or records.
An exit that is not its task's innermost counts ``obs.span_mismatch`` and
removes only its own entry.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from time import perf_counter
from typing import Callable, Mapping, Optional

from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.records import RunRecord

_enabled: bool = False
_registry: MetricsRegistry = MetricsRegistry()
#: This thread's (or task's) open ``timed`` spans, innermost last.
_spans: ContextVar[tuple] = ContextVar("repro_obs_spans", default=())
#: Its open run records as ``(record, prefix)``: a stage key is a span
#: path minus its first ``prefix`` characters (the record's base path).
_records: ContextVar[tuple] = ContextVar("repro_obs_records", default=())


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _enabled


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Turn recording on (optionally into a caller-owned registry).

    Returns the registry now receiving measurements; idempotent.
    """
    global _enabled, _registry
    if registry is not None:
        _registry = registry
    _enabled = True
    return _registry


def disable() -> None:
    """Turn recording off and clear this thread's (or task's) open spans
    and records.  The registry keeps its accumulated data."""
    global _enabled
    _enabled = False
    _spans.set(())
    _records.set(())


def get_registry() -> MetricsRegistry:
    """The registry measurements are (or would be) recorded into."""
    return _registry


def reset() -> None:
    """Clear the active registry and this thread's (or task's) open
    spans and records."""
    _registry.reset()
    _spans.set(())
    _records.set(())


# ---------------------------------------------------------------------- #
# Fire-and-forget instrument updates
# ---------------------------------------------------------------------- #


def count(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name`` (and the innermost active record's)."""
    if not _enabled:
        return
    _registry.counter(name).inc(amount)
    records = _records.get()
    if records:
        records[-1][0].add_count(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value``."""
    if not _enabled:
        return
    _registry.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record one observation into histogram ``name``."""
    if not _enabled:
        return
    _registry.histogram(name).observe(value)


# ---------------------------------------------------------------------- #
# Scoped timers
# ---------------------------------------------------------------------- #


class timed:
    """Scoped wall-clock timer; context manager and decorator.

    Always measures (``.duration`` in seconds after exit); records into
    ``time.<path>`` histograms — and the active run record's stage map —
    only while observability is enabled.
    """

    __slots__ = ("name", "duration", "_path", "_t0", "_token", "_pushed",
                 "_trace")

    def __init__(self, name: str) -> None:
        self.name = name
        self.duration: Optional[float] = None

    def __enter__(self) -> "timed":
        self._pushed = None
        if _enabled:
            stack = _spans.get()
            self._path = (f"{stack[-1]._path}/{self.name}" if stack
                          else self.name)
            self._pushed = stack + (self,)
            self._token = _spans.set(self._pushed)
        self._trace = _trace.begin_span(self.name) if _trace._tracing else None
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = perf_counter() - self._t0
        self.duration = duration
        if self._trace is not None:
            _trace.end_span(self._trace)
        pushed, self._pushed = self._pushed, None  # no self-cycle
        if pushed is not None:
            _trace.unwind(_spans, self._token, pushed)
            if _enabled:
                path = self._path
                _registry.histogram("time." + path).observe(duration)
                records = _records.get()
                if records:
                    record, prefix = records[-1]
                    if len(path) > prefix:
                        record.add_stage(path[prefix:], duration)
        return False

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with timed(self.name):
                return fn(*args, **kwargs)

        return wrapper


# ---------------------------------------------------------------------- #
# Run records
# ---------------------------------------------------------------------- #


class record_run:
    """Context manager capturing one run as a :class:`RunRecord`.

    Yields the live record when enabled (mutate ``method``/``outcome``
    freely inside the block), or ``None`` when disabled.  On exit the
    total duration is stamped, failure is noted in ``outcome``, and the
    record is appended to the registry's ``records`` list.
    """

    __slots__ = ("kind", "inputs", "method", "_record", "_t0", "_token",
                 "_pushed", "_trace")

    def __init__(
        self,
        kind: str,
        inputs: Optional[Mapping] = None,
        method: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.inputs = inputs
        self.method = method

    def __enter__(self) -> Optional[RunRecord]:
        self._trace = (
            _trace.begin_span(self.kind, self.inputs)
            if _trace._tracing else None
        )
        self._record = None
        if not _enabled:
            return None
        record = RunRecord(
            kind=self.kind,
            inputs=dict(self.inputs) if self.inputs else {},
            method=self.method,
        )
        self._record = record
        spans = _spans.get()
        prefix = len(spans[-1]._path) + 1 if spans else 0
        self._pushed = _records.get() + ((record, prefix),)
        self._token = _records.set(self._pushed)
        self._t0 = perf_counter()
        return record

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._trace is not None:
            _trace.end_span(self._trace)
        record = self._record
        if record is None:
            return False
        record.total_seconds = perf_counter() - self._t0
        if exc_type is not None:
            record.outcome.setdefault("error", exc_type.__name__)
        _trace.unwind(_records, self._token, self._pushed)
        if _enabled:
            _registry.records.append(record)
        return False


def current_record() -> Optional[RunRecord]:
    """This thread's (or task's) innermost in-flight record, if any."""
    records = _records.get()
    return records[-1][0] if records else None


def last_record(kind: Optional[str] = None) -> Optional[RunRecord]:
    """The most recently completed record (optionally of one ``kind``)."""
    for record in reversed(_registry.records):
        if kind is None or record.kind == kind:
            return record
    return None
