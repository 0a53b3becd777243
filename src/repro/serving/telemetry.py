"""Live telemetry store of the serving daemon.

:class:`ServingTelemetry` is the one store of the daemon's request and
batch metrics.  Every admitted, rejected and finished request and every
dispatched batch is recorded here once, into two views of the same
stream:

- *lifetime* tallies since boot — per-op request and error counts, the
  invalid-request count, per-op latency histograms
  (:class:`~repro.obs.metrics.Histogram`) and the exact batch-size
  counts — which the ``stats`` op and the Prometheus counters report;
- *windowed* instruments (:class:`~repro.obs.metrics.WindowedCounter`,
  :class:`~repro.obs.metrics.SlidingHistogram`), so the ``telemetry`` op
  can answer "what are req/s and p99 over the last 10 s / 1 m / 5 m"
  exactly — a lifetime total cannot, because a morning of healthy
  traffic drowns the last bad minute — and the SLO monitors in
  :mod:`repro.obs.watchdog` can evaluate burn rates against the same
  horizons.

:meth:`ServingTelemetry.read` takes both views in one pass under the
store's lock, so the daemon's ``stats``, ``telemetry`` and Prometheus
answers agree with each other.

It is also where the daemon's spans end up.  The daemon opens its
``serving.request``, ``serving.batch`` and ``serving.query_many`` spans
through :mod:`repro.obs.trace` like any other span — each takes its
parent from its own task's open-span stack — but with
:meth:`ServingTelemetry.record_span` as the sink, so they are recorded
whatever the user's tracing switch says and never land in the
process-global :class:`~repro.obs.trace.TraceBuffer` (which belongs to
the user).  The store keeps the newest closed spans and events
(``slo.violation``) in bounded deques; the ``trace`` op serves their
tail as a self-contained trace-JSONL document, and an optional
:class:`~repro.obs.trace.RotatingTraceExporter` persists every closed
record to disk (flushed from the watchdog loop, never on the request
path).

Thread model: the event loop feeds the request and batch tallies and
closes request spans; the compute thread closes batch spans.  One lock
guards the store — every operation is a few list/dict writes, so
contention is negligible next to a solve.
"""

from __future__ import annotations

import threading
from collections import deque
from time import monotonic, perf_counter
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_HORIZONS,
    Histogram,
    SlidingHistogram,
    WindowedCounter,
)
from repro.obs.trace import (
    RotatingTraceExporter,
    TraceBuffer,
    TraceEvent,
    TraceSpan,
)

#: Closed spans/events retained in memory for the ``trace`` op.
MAX_RECENT_SPANS = 2048
MAX_RECENT_EVENTS = 2048

#: Default (and maximum) span count the ``trace`` op returns.
DEFAULT_TRACE_LIMIT = 100
MAX_TRACE_LIMIT = 1000


class ServingTelemetry:
    """Lifetime and windowed metrics plus a bounded store of closed
    spans for one daemon.

    Parameters
    ----------
    window:
        Seconds of history the sliding instruments retain; every
        reported horizon must fit inside it.
    horizons:
        The horizons (seconds) reported by :meth:`snapshot`.
    exporter:
        Optional :class:`~repro.obs.trace.RotatingTraceExporter`; when
        set, every closed span/event is also queued for :meth:`flush`.
    keep_spans, keep_events:
        How many of the newest closed spans/events the store keeps.
    clock:
        Monotonic-seconds callable feeding the windowed instruments
        (swap in a fake for deterministic tests).  Span timestamps use
        ``perf_counter`` like the rest of :mod:`repro.obs.trace`.
    """

    def __init__(
        self,
        window: float = 300.0,
        horizons: tuple = DEFAULT_HORIZONS,
        exporter: Optional[RotatingTraceExporter] = None,
        clock=monotonic,
        keep_spans: int = MAX_RECENT_SPANS,
        keep_events: int = MAX_RECENT_EVENTS,
    ) -> None:
        bad = [h for h in horizons if not 0.0 < h <= window]
        if not horizons or bad:
            raise ConfigurationError(
                f"telemetry horizons must be in (0, {window}] seconds, "
                f"got {list(horizons)}"
            )
        self.window = float(window)
        self.horizons = tuple(float(h) for h in horizons)
        self.exporter = exporter
        self.clock = clock
        self._lock = threading.Lock()
        # Lifetime tallies since boot (guarded by the lock).
        self._admitted: dict[str, int] = {}
        self._failed: dict[str, int] = {}
        self._invalid = 0
        self._latency: dict[str, Histogram] = {}
        self._batch_sizes: dict[int, int] = {}
        self._violations: dict[str, int] = {}
        self._worst_headroom: dict[str, float] = {}
        # Windowed instruments (guarded by the lock).
        self._requests = WindowedCounter("serving.requests", window)
        self._errors = WindowedCounter("serving.errors", window)
        self._latency_ms = SlidingHistogram("serving.latency_ms", window)
        self._latency_by_op: dict[str, SlidingHistogram] = {}
        self._queue_depth = SlidingHistogram("serving.queue_depth", window)
        self._batch_size = SlidingHistogram("serving.batch_size", window)
        self._loop_lag = SlidingHistogram("serving.loop_lag_seconds", window)
        # Closed-span store.
        self._recent_spans: deque = deque(maxlen=keep_spans)
        self._recent_events: deque = deque(maxlen=keep_events)
        self._pending_spans: list[TraceSpan] = []
        self._pending_events: list[TraceEvent] = []

    # ------------------------------------------------------------------ #
    # Feeds (hot path: a few appends under the lock)
    # ------------------------------------------------------------------ #

    def admit(self, op: str) -> None:
        """One request accepted for ``op``.

        Counted before the request is served, so a ``stats`` reply
        counts itself."""
        with self._lock:
            self._admitted[op] = self._admitted.get(op, 0) + 1

    def observe_invalid(self) -> None:
        """One request rejected before dispatch (bad JSON or shape)."""
        with self._lock:
            self._invalid += 1

    def observe_request(
        self, op: str, seconds: float, error: bool = False
    ) -> None:
        """One finished request: its latency and error, lifetime and
        windowed."""
        now = self.clock()
        with self._lock:
            per_op = self._latency_by_op.get(op)
            if per_op is None:
                self._latency[op] = Histogram(f"serving.latency.{op}")
                per_op = self._latency_by_op[op] = SlidingHistogram(
                    f"serving.latency_ms.{op}", self.window
                )
            self._latency[op].observe(seconds)
            per_op.observe(seconds * 1e3, now=now)
            self._latency_ms.observe(seconds * 1e3, now=now)
            self._requests.inc(now=now)
            if error:
                self._failed[op] = self._failed.get(op, 0) + 1
                self._errors.inc(now=now)

    def observe_queue_depth(self, depth: int) -> None:
        with self._lock:
            self._queue_depth.observe(depth, now=self.clock())

    def observe_batch(self, size: int) -> None:
        """One dispatched batch of ``size`` requests."""
        with self._lock:
            self._batch_sizes[size] = self._batch_sizes.get(size, 0) + 1
            self._batch_size.observe(size, now=self.clock())

    def observe_loop_lag(self, lag_seconds: float) -> None:
        with self._lock:
            self._loop_lag.observe(lag_seconds, now=self.clock())

    # ------------------------------------------------------------------ #
    # Windowed reads (the duck-typed surface the SLO monitors consume)
    # ------------------------------------------------------------------ #

    def request_count(self, horizon: float) -> float:
        with self._lock:
            return self._requests.total(horizon, now=self.clock())

    def error_count(self, horizon: float) -> float:
        with self._lock:
            return self._errors.total(horizon, now=self.clock())

    def request_rate(self, horizon: float) -> float:
        with self._lock:
            return self._requests.rate(horizon, now=self.clock())

    def latency_p99_ms(self, horizon: float) -> float:
        with self._lock:
            return self._latency_ms.percentile(
                99.0, horizon, now=self.clock()
            )

    def latency_p50_ms(self, horizon: float) -> float:
        with self._lock:
            return self._latency_ms.percentile(
                50.0, horizon, now=self.clock()
            )

    def max_queue_depth(self, horizon: float) -> float:
        with self._lock:
            return self._queue_depth.max_value(horizon, now=self.clock())

    def max_loop_lag_seconds(self, horizon: float) -> float:
        with self._lock:
            return self._loop_lag.max_value(horizon, now=self.clock())

    # ------------------------------------------------------------------ #
    # Closed-span store (request → batch → query_many linkage)
    # ------------------------------------------------------------------ #

    def record_span(self, span: TraceSpan) -> None:
        """Keep one closed span — the sink the daemon's spans end into."""
        with self._lock:
            self._recent_spans.append(span)
            if self.exporter is not None:
                self._pending_spans.append(span)

    def record_violation(self, violation) -> None:
        """Fold one watchdog :class:`~repro.obs.watchdog.Violation` in.

        Emits the ``slo.violation`` trace event and keeps per-monitor
        counts/headroom for the ``stats``/``telemetry`` ops.
        """
        event = TraceEvent("slo.violation", perf_counter(), attributes={
            "monitor": violation.monitor, "metric": violation.metric,
            "headroom": violation.headroom, "message": violation.message,
        })
        with self._lock:
            self._recent_events.append(event)
            if self.exporter is not None:
                self._pending_events.append(event)
            self._violations[violation.monitor] = (
                self._violations.get(violation.monitor, 0) + 1
            )
            worst = self._worst_headroom.get(
                violation.metric, float("inf")
            )
            self._worst_headroom[violation.metric] = min(
                worst, violation.headroom
            )

    def trace_tail(self, limit: Optional[int] = None) -> dict:
        """The most recent closed spans (and their events) as JSONL.

        The result of the ``trace`` op: a ``TraceBuffer``-compatible
        JSONL document plus the span/event counts, small enough for one
        protocol line.
        """
        if limit is None:
            limit = DEFAULT_TRACE_LIMIT
        limit = min(int(limit), MAX_TRACE_LIMIT)
        with self._lock:
            spans = list(self._recent_spans)[-limit:]
            events = list(self._recent_events)[-limit:]
        buffer = TraceBuffer()
        buffer.spans = spans
        buffer.events = events
        return {
            "spans": len(spans),
            "events": len(events),
            "jsonl": buffer.to_jsonl(),
        }

    def flush(self) -> int:
        """Write pending records to the exporter; returns how many.

        Called from the daemon's watchdog loop so disk I/O never sits
        on the request path.  No-op without an exporter.
        """
        if self.exporter is None:
            return 0
        with self._lock:
            spans, self._pending_spans = self._pending_spans, []
            events, self._pending_events = self._pending_events, []
        if not spans and not events:
            return 0
        self.exporter.write(spans, events)
        return len(spans) + len(events)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """JSON-safe windowed summary (the ``telemetry`` op's result)."""
        return self.read()[1]

    def read(self, windowed: bool = True) -> tuple[dict, Optional[dict]]:
        """``(lifetime, windowed)``, both taken under the lock at once.

        ``lifetime`` holds the tallies since boot under the keys the
        ``stats`` op reports them by; ``windowed`` is the
        :meth:`snapshot` summary, or ``None`` when not asked for (its
        per-horizon percentiles are the costly part of a read).
        """
        now = self.clock()
        with self._lock:
            slo = {
                "violations": dict(self._violations),
                "worst_headroom": dict(sorted(self._worst_headroom.items())),
            }
            sizes = sorted(self._batch_sizes.items())
            batches = sum(count for _, count in sizes)
            dispatched = sum(size * count for size, count in sizes)
            lifetime = {
                "requests": dict(self._admitted),
                "errors": dict(self._failed),
                "invalid_requests": self._invalid,
                "batches": batches,
                "mean_batch_size": dispatched / batches if batches else 0.0,
                "max_batch_size": sizes[-1][0] if sizes else 0,
                "batch_size_histogram": {
                    str(size): count for size, count in sizes
                },
                "latency": {
                    op: {
                        "count": hist.count,
                        "mean_ms": hist.mean * 1e3,
                        "p50_ms": hist.percentile(50.0) * 1e3,
                        "p99_ms": hist.percentile(99.0) * 1e3,
                    }
                    for op, hist in sorted(self._latency.items())
                },
                "slo": slo,
            }
            if not windowed:
                return lifetime, None
            per_op = {
                op: hist.summary(self.horizons, now=now)
                for op, hist in sorted(self._latency_by_op.items())
            }
            return lifetime, {
                "window_seconds": self.window,
                "horizons": list(self.horizons),
                "requests": self._requests.summary(self.horizons, now=now),
                "errors": self._errors.summary(self.horizons, now=now),
                "latency_ms": self._latency_ms.summary(
                    self.horizons, now=now
                ),
                "latency_ms_by_op": per_op,
                "queue_depth": self._queue_depth.summary(
                    self.horizons, now=now
                ),
                "batch_size": self._batch_size.summary(
                    self.horizons, now=now
                ),
                "loop_lag_seconds": self._loop_lag.summary(
                    self.horizons, now=now
                ),
                "slo": dict(slo),
                "trace": {
                    "recent_spans": len(self._recent_spans),
                    "recent_events": len(self._recent_events),
                    "pending_export": (
                        len(self._pending_spans)
                        + len(self._pending_events)
                    ),
                },
            }
