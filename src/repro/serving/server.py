"""The allocation-serving daemon: a warm index behind an asyncio loop.

:class:`AllocationServer` turns the batch library into an online
system: it warm-starts a :class:`~repro.core.consolidation.ConsolidationIndex`
(from the persistent ``.npz`` cache when the optimizer has an
``index_cache_dir``), listens on a unix socket or TCP, and answers the
protocol's ``allocate`` / ``maxL`` / ``what-if`` queries.

Concurrency model — one event loop, one compute thread:

- The loop owns all I/O (connections, the :class:`MicroBatcher`
  collection window, the watchdog).
- All numeric work runs on a single-worker ``ThreadPoolExecutor``, so
  the loop keeps collecting the *next* batch while the current one
  computes, and the (non-thread-safe) index caches are only ever
  touched from one thread.

Batched ``allocate`` dispatch answers duplicate concurrent loads once
(closed form included) — the coalescing the serving benchmark measures.
Across batches, a bounded LRU answer memo keyed by the load keeps each
successful answer with its encoded JSON body: the answer is a pure
function of the load, and a server's optimizer never changes, so a
repeated load skips selection, the closed form and the response encode.
The loop reads the memo when it admits a plain ``allocate``: a hit is
answered there and never enters the batcher, so it pays neither the
batch window nor the compute-thread hop.  A batch looks its distinct
loads up again, for those memoized while their requests were queued.
The batch's remaining loads, and a ``what-if`` horizon, go to one
:meth:`~repro.core.optimizer.JointOptimizer.solve_many` call, monolithic
or pod-sharded.  Every path that can fail returns the same
:mod:`repro.errors` exception the library call would raise locally; the
protocol layer turns it into a structured error response.

Shutdown is a *drain*: stop accepting, finish every in-flight batched
request, then close.  ``serve_forever`` wires SIGTERM/SIGINT to the
drain, so ``kill <pid>`` loses no accepted request.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import pathlib
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from repro import obs
from repro.core.closed_form import solve_closed_form
from repro.core.optimizer import JointOptimizer, OptimizationResult
from repro.errors import (
    ConfigurationError,
    ConstraintViolationError,
    ReproError,
    ServingUnavailableError,
)
from repro.obs.metrics import DEFAULT_HORIZONS
from repro.obs.trace import RotatingTraceExporter, TraceSpan
from repro.obs.watchdog import WatchdogSet, serving_monitors
from repro.serving.batcher import MicroBatcher
from repro.serving.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    EncodedResult,
    Request,
    decode_request,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from repro.serving.telemetry import ServingTelemetry

#: Bound on the JSON body bytes one server's answer memo keeps.  An
#: entry's resident size is about five times its body (47 KB for a
#: 9.3 KB body at n=500), so 8 MiB holds ~40 MB.  Bodies grow with the
#: room, so a bound on bytes rather than entries holds about that
#: resident size for any room.
ANSWER_MEMO_MAX_BYTES = 8 * 1024 * 1024


def _recover_request_id(message: Any) -> Any:
    """Best-effort ``id`` extraction from an unparseable request.

    Echoing the id back (when the envelope was at least valid JSON)
    lets pipelined clients correlate the structured error with the
    request that caused it.
    """
    if isinstance(message, str):
        try:
            message = json.loads(message)
        except ValueError:
            return None
    if isinstance(message, Mapping):
        candidate = message.get("id")
        if isinstance(candidate, (str, int)) and not isinstance(
            candidate, bool
        ):
            return candidate
    return None


class _AnswerMemo:
    """Load -> :class:`EncodedResult`, least recently used evicted first,
    bounded by :data:`ANSWER_MEMO_MAX_BYTES` of bodies.

    The loop thread reads it on admission and the compute thread reads
    and writes it per batch, so one lock guards the entries and tallies."""

    def __init__(self) -> None:
        self._entries: OrderedDict[float, EncodedResult] = OrderedDict()
        self._lock = threading.Lock()
        self.body_bytes = 0
        self.hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, load: float) -> Optional[EncodedResult]:
        with self._lock:
            entry = self._entries.get(load)
            if entry is not None:
                self._entries.move_to_end(load)
                self.hits += 1
                obs.count("serving.answer_memo_hits")
        return entry

    def put(self, load: float, entry: EncodedResult) -> None:
        with self._lock:
            self._entries[load] = entry
            self.body_bytes += len(entry.body)
            while self.body_bytes > ANSWER_MEMO_MAX_BYTES:
                _, evicted = self._entries.popitem(last=False)
                self.body_bytes -= len(evicted.body)
                self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "body_bytes": self.body_bytes,
                "hits": self.hits,
                "evictions": self.evictions,
            }


@dataclass
class ServingConfig:
    """Tunables of one :class:`AllocationServer`.

    Exactly one transport may be configured: ``socket_path`` (unix
    domain socket) or ``port`` (TCP on ``host``; port ``0`` binds an
    ephemeral port, reported in :attr:`AllocationServer.address`).
    With neither, the server is in-process only — :meth:`AllocationServer.handle`
    still works, which is how the load generator drives it.

    ``batch_window`` is the micro-batching lever (see
    ``docs/serving.md`` for tuning guidance): the seconds the first
    request of a batch waits for concurrent company.  ``batching=False``
    keeps the identical queue/dispatch machinery but forces singleton
    batches — the benchmark baseline.

    ``telemetry_window`` bounds the windowed metrics the ``telemetry``
    op reports; ``trace_path`` turns on the rotating on-disk span
    exporter.  The ``slo_*`` thresholds are each optional — only the
    ones given become live SLO monitors (see
    :func:`repro.obs.watchdog.serving_monitors`), evaluated every
    watchdog tick over ``slo_horizon`` seconds with the usual
    ``warn``/``raise`` policy.
    """

    socket_path: Optional[Union[str, pathlib.Path]] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    batch_window: float = 0.005
    max_batch: int = 512
    batching: bool = True
    drain_grace: float = 10.0
    watchdog_interval: float = 0.25
    stall_threshold: float = 0.25
    telemetry_window: float = 300.0
    trace_path: Optional[Union[str, pathlib.Path]] = None
    trace_max_bytes: int = 1_000_000
    trace_keep_files: int = 3
    slo_p99_ms: Optional[float] = None
    slo_queue_depth: Optional[int] = None
    slo_error_rate: Optional[float] = None
    slo_max_loop_lag: Optional[float] = None
    slo_horizon: float = 60.0
    slo_policy: str = "warn"

    def __post_init__(self) -> None:
        if self.socket_path is not None and self.port is not None:
            raise ConfigurationError(
                "configure either socket_path or port, not both"
            )
        if self.batch_window < 0.0:
            raise ConfigurationError(
                f"batch_window must be non-negative, got {self.batch_window}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be at least 1, got {self.max_batch}"
            )
        if self.drain_grace <= 0.0:
            raise ConfigurationError(
                f"drain_grace must be positive, got {self.drain_grace}"
            )
        if self.watchdog_interval <= 0.0 or self.stall_threshold <= 0.0:
            raise ConfigurationError(
                "watchdog_interval and stall_threshold must be positive"
            )
        if self.telemetry_window <= 0.0:
            raise ConfigurationError(
                f"telemetry_window must be positive, "
                f"got {self.telemetry_window}"
            )
        if self.trace_max_bytes < 1 or self.trace_keep_files < 1:
            raise ConfigurationError(
                "trace_max_bytes and trace_keep_files must be positive"
            )
        if not 0.0 < self.slo_horizon <= self.telemetry_window:
            raise ConfigurationError(
                f"slo_horizon must be in (0, telemetry_window="
                f"{self.telemetry_window}], got {self.slo_horizon}"
            )
        if self.slo_policy not in ("warn", "raise"):
            raise ConfigurationError(
                f"unknown slo_policy {self.slo_policy!r} "
                "(expected 'warn' or 'raise')"
            )


class AllocationServer:
    """Serve joint allocation queries from a warm in-memory index."""

    def __init__(
        self,
        optimizer: JointOptimizer,
        config: Optional[ServingConfig] = None,
    ) -> None:
        self.optimizer = optimizer
        self.config = config or ServingConfig()
        exporter = None
        if self.config.trace_path is not None:
            exporter = RotatingTraceExporter(
                self.config.trace_path,
                max_bytes=self.config.trace_max_bytes,
                keep_files=self.config.trace_keep_files,
            )
        window = self.config.telemetry_window
        horizons = tuple(
            h for h in DEFAULT_HORIZONS if h <= window
        ) or (window,)
        #: The one store of request and batch metrics, lifetime and
        #: windowed, plus the span store behind ``trace``.
        self.telemetry = ServingTelemetry(
            window=window, horizons=horizons, exporter=exporter
        )
        slo = serving_monitors(
            target_p99_ms=self.config.slo_p99_ms,
            max_queue_depth=self.config.slo_queue_depth,
            max_error_rate=self.config.slo_error_rate,
            max_loop_lag_seconds=self.config.slo_max_loop_lag,
            horizon=self.config.slo_horizon,
        )
        #: SLO watchdog — built only when a threshold is configured, so
        #: an unconfigured daemon runs zero checks (and zero warnings).
        self._slo_watchdog: Optional[WatchdogSet] = (
            WatchdogSet(slo, policy=self.config.slo_policy) if slo else None
        )
        #: Message of the violation that tripped a ``raise`` SLO policy
        #: (the watchdog loop fail-stops its checks and surfaces it here).
        self.slo_failure: Optional[str] = None
        self._batcher = MicroBatcher(
            self._dispatch,
            batch_window=self.config.batch_window,
            max_batch=self.config.max_batch,
            batching=self.config.batching,
            on_batch=self.telemetry.observe_batch,
        )
        self.coalesced = 0
        #: Successful grouped ``allocate`` answers by load, across batches.
        self._answer_memo = _AnswerMemo()
        self.stalls = 0
        self.max_loop_lag = 0.0
        self.index_statuses = 0
        self.index_cache_key: Optional[str] = None
        #: Open request spans by ``trace_id`` (loop thread writes,
        #: compute thread annotates).
        self._trace_pending: dict[int, TraceSpan] = {}
        #: ``("unix", path)`` or ``("tcp", host, port)`` once bound.
        self.address: Optional[tuple] = None
        self._inflight = 0
        self._started = False
        self._draining = False
        self._started_at = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._watchdog_task: Optional[asyncio.Task] = None
        self._drained_event: Optional[asyncio.Event] = None
        self._writers: set = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _warm_start(self) -> None:
        """Force the index build (or ``.npz`` cache load) before the
        first request.

        The build is Algorithm 1's event times alone (~4 ms at n=500).
        Everything else fills lazily, as a query first touches it: each
        order row (one sort), its top-k prefix sums, the per-ratio merge
        evaluations and the order-aligned row arrays.  The 48 serve
        levels at n=500 read one order row of 1,613, so building the
        rest here would only move unread work into start-up."""
        with obs.timed("serving/warm_start"):
            index = self.optimizer.query_index
        self.index_statuses = index.status_count
        self.index_cache_key = getattr(index, "cache_key", None)

    async def start(self) -> None:
        """Warm the index, start the batcher/watchdog, bind transports."""
        if self._started:
            raise ConfigurationError("server is already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._drained_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        # Warm on the compute thread: the loop (and any already-bound
        # signal handling) stays responsive during a long cold build.
        await self._loop.run_in_executor(self._executor, self._warm_start)
        self._batcher.start()
        self._watchdog_task = asyncio.create_task(
            self._watchdog_loop(), name="repro-serve-watchdog"
        )
        if self.config.socket_path is not None:
            path = str(self.config.socket_path)
            with contextlib.suppress(OSError):
                os.unlink(path)  # stale socket from a killed process
            self._asyncio_server = await asyncio.start_unix_server(
                self._serve_connection, path=path, limit=MAX_LINE_BYTES
            )
            self.address = ("unix", path)
        elif self.config.port is not None:
            self._asyncio_server = await asyncio.start_server(
                self._serve_connection,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_LINE_BYTES,
            )
            bound = self._asyncio_server.sockets[0].getsockname()
            self.address = ("tcp", self.config.host, int(bound[1]))
        self._started_at = time.monotonic()

    async def drain(self) -> None:
        """Graceful shutdown: reject new work, finish in-flight work.

        Idempotent; concurrent callers all wait for the single drain to
        complete.  Order matters: close the listeners first (no new
        connections), flip the draining flag (new requests on live
        connections get :class:`~repro.errors.ServingUnavailableError`),
        then drain the batcher so every already-accepted request
        resolves before the compute thread shuts down.
        """
        if self._drained_event is None:
            return
        if self._draining:
            await self._drained_event.wait()
            return
        self._draining = True
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        await self._batcher.drain()
        deadline = self._loop.time() + self.config.drain_grace
        while self._inflight > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.005)
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watchdog_task
        # Final span flush: anything closed since the last watchdog
        # tick still reaches the rotating exporter before shutdown.
        self.telemetry.flush()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        if self.address is not None and self.address[0] == "unix":
            with contextlib.suppress(OSError):
                os.unlink(self.address[1])
        self._drained_event.set()

    async def serve_forever(self, handle_signals: bool = True) -> None:
        """Run until SIGTERM/SIGINT, then drain — the daemon main loop."""
        if not self._started:
            await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = []
        if handle_signals:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or unsupported platform
        try:
            await stop.wait()
        finally:
            # Keep the handlers installed until the drain finishes: a
            # repeated SIGINT mid-drain (shells and process supervisors
            # often signal the whole group) must not abort the graceful
            # shutdown with a KeyboardInterrupt.
            try:
                await self.drain()
            finally:
                for sig in installed:
                    loop.remove_signal_handler(sig)

    async def _watchdog_loop(self) -> None:
        """Self-check heartbeat: event-loop lag and queue depth.

        A sleep that oversleeps by more than ``stall_threshold`` means
        the loop was blocked (a compute leak onto the loop thread, or a
        starved host) — counted as a stall and recorded as a trace
        event so post-mortems can line it up with the request timeline.

        Each tick also feeds the windowed telemetry (queue depth, loop
        lag), evaluates the configured SLO monitors, and flushes closed
        spans to the rotating exporter — keeping every byte of disk I/O
        and every SLO evaluation off the request path.  Under the
        ``raise`` policy the first violation fail-stops further SLO
        checks and is surfaced in ``stats()["slo"]["failure"]`` (the
        daemon keeps serving; a background task has no caller to raise
        into).
        """
        interval = self.config.watchdog_interval
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(interval)
            lag = loop.time() - before - interval
            if lag > self.max_loop_lag:
                self.max_loop_lag = lag
            if lag > self.config.stall_threshold:
                self.stalls += 1
                obs.count("serving.watchdog_stalls")
                obs.add_event(
                    "serving.stall",
                    lag_seconds=round(lag, 6),
                    queue_depth=self._batcher.depth,
                    inflight=self._inflight,
                )
            obs.set_gauge("serving.queue_depth", self._batcher.depth)
            obs.set_gauge("serving.inflight", self._inflight)
            self.telemetry.observe_queue_depth(self._batcher.depth)
            self.telemetry.observe_loop_lag(max(lag, 0.0))
            self._check_slo()
            self.telemetry.flush()

    def _check_slo(self) -> None:
        """One SLO evaluation pass (called from the watchdog tick)."""
        if self._slo_watchdog is None or self.slo_failure is not None:
            return
        try:
            violations = self._slo_watchdog.check_serving(self.telemetry)
        except ConstraintViolationError as exc:
            # raise policy: the violation is already recorded on the
            # watchdog set; mirror it into telemetry and fail-stop.
            if self._slo_watchdog.violations:
                self.telemetry.record_violation(
                    self._slo_watchdog.violations[-1]
                )
            self.slo_failure = str(exc)
            obs.count("serving.slo_failures")
            return
        for violation in violations:
            self.telemetry.record_violation(violation)

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    async def handle(self, message: Any) -> dict:
        """Answer one request (wire line, JSON payload, or Request).

        Always returns a response envelope — library errors become
        structured error responses, never exceptions, so one bad
        request cannot take down a connection (or the caller's task).
        """
        t0 = time.perf_counter()
        try:
            if isinstance(message, Request):
                request = message
            elif isinstance(message, str):
                request = decode_request(message)
            else:
                request = parse_request(message)
        except ConfigurationError as exc:
            self.telemetry.observe_invalid()
            obs.count("serving.invalid_requests")
            return error_response(_recover_request_id(message), exc)
        op = request.op
        self.telemetry.admit(op)
        ok = True
        try:
            if self._draining and op not in (
                "ping", "stats", "telemetry", "trace"
            ):
                raise ServingUnavailableError(
                    "server is draining; retry against a healthy replica"
                )
            with obs.timed(f"serving/{op}"):
                if op == "ping":
                    result = {
                        "protocol": PROTOCOL_VERSION,
                        "status": "draining" if self._draining else "ok",
                        "machines": self.optimizer.model.node_count,
                    }
                elif op == "stats":
                    result = self.stats()
                elif op == "telemetry":
                    result = self.telemetry_payload(request.format)
                elif op == "trace":
                    result = self.telemetry.trace_tail(request.limit)
                else:
                    span = None
                    if request.trace_id is not None:
                        span = obs.trace.begin_span(
                            "serving.request",
                            {"op": op, "trace_id": request.trace_id,
                             "request_id": request.id},
                            sink=self.telemetry.record_span,
                        )
                        self._trace_pending[request.trace_id] = span.span
                    self._inflight += 1
                    try:
                        # A memoized load is answered here, on the loop:
                        # no batch window, no compute-thread hop.
                        result = (
                            self._answer_memo.get(request.load)
                            if op == "allocate" and not request.exclude
                            else None
                        )
                        if result is None:
                            result = await self._batcher.submit(request)
                        elif span is not None:
                            span.span.attributes["memo_hit"] = True
                    except ReproError:
                        ok = False
                        raise
                    finally:
                        self._inflight -= 1
                        if span is not None:
                            self._trace_pending.pop(request.trace_id, None)
                            obs.trace.end_span(span, ok=ok)
            response = ok_response(request.id, result)
        except ReproError as exc:
            ok = False
            obs.count("serving.errors")
            response = error_response(request.id, exc)
        self.telemetry.observe_request(
            op, time.perf_counter() - t0, error=not ok
        )
        return response

    async def _serve_connection(self, reader, writer) -> None:
        """One JSON-lines connection: requests in, envelopes out."""
        self._writers.add(writer)
        obs.count("serving.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: the buffer can no longer be
                    # trusted to frame requests — answer and hang up.
                    writer.write(encode(error_response(
                        None,
                        ConfigurationError(
                            f"request line exceeds {MAX_LINE_BYTES} bytes"
                        ),
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace")
                if not text.strip():
                    continue
                writer.write(encode(await self.handle(text)))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    # ------------------------------------------------------------------ #
    # Batched compute (runs on the single compute thread)
    # ------------------------------------------------------------------ #

    async def _dispatch(self, batch: list[Request]) -> list:
        return await self._loop.run_in_executor(
            self._executor, self._compute_batch, batch
        )

    def _compute_batch(self, requests: list[Request]) -> list:
        """One outcome (result dict or exception) per request.

        Opens one ``serving.batch`` span carrying the ``trace_id`` of
        every request it serves, and annotates each request's still-open
        span with the batch link plus its wait/compute split — the
        linkage the ``trace`` op exposes.
        """
        t_compute = time.perf_counter()
        trace_ids = [
            r.trace_id for r in requests if r.trace_id is not None
        ]
        pending = [
            s for s in map(self._trace_pending.get, trace_ids) if s is not None
        ]
        with obs.timed("serving/batch"):
            with obs.trace.span(
                "serving.batch", sink=self.telemetry.record_span,
                batch=len(requests), trace_ids=trace_ids,
            ) as batch:
                batch_span = batch.handle.span
                for request_span in pending:
                    request_span.attributes.update(
                        batch_span_id=batch_span.span_id,
                        wait_seconds=t_compute - request_span.start,
                    )
                outcomes: list = [None] * len(requests)
                grouped = []
                for i, request in enumerate(requests):
                    if request.op == "allocate" and not request.exclude:
                        grouped.append(i)
                    else:
                        outcomes[i] = self._compute_single(request)
                if grouped:
                    self._compute_grouped_allocations(
                        requests, grouped, outcomes
                    )
                batch_span.attributes["grouped"] = len(grouped)
            obs.set_span_attributes(
                batch=len(requests), grouped=len(grouped)
            )
        compute_seconds = time.perf_counter() - t_compute
        for request_span in pending:
            request_span.attributes["compute_seconds"] = compute_seconds
        return outcomes

    def _compute_single(self, request: Request):
        """The ungrouped fallback: exactly the library call, per request."""
        try:
            if request.op == "allocate":
                result = self.optimizer.solve(
                    request.load,
                    exclude=list(request.exclude) or None,
                )
                return self._allocation_payload(result.solution, result.method)
            if request.op == "maxL":
                max_load, result = self.optimizer.max_load_under_budget(
                    request.budget
                )
                return {
                    "max_load": float(max_load),
                    "allocation": self._allocation_payload(
                        result.solution, result.method
                    ),
                }
            if request.op == "what-if":
                return self._what_if(request)
        except ReproError as exc:
            return exc
        return ConfigurationError(f"unserveable op {request.op!r}")

    def _compute_grouped_allocations(
        self,
        requests: list[Request],
        grouped: list[int],
        outcomes: list,
    ) -> None:
        """All plain ``allocate`` ops of a batch in one
        :meth:`~repro.core.optimizer.JointOptimizer.solve_many` call.

        Duplicate loads share one answer — ON set *and* closed form —
        which is the serving-level coalescing win.  Each distinct load is
        looked up in the answer memo first (admission already answered
        the loads memoized before their request arrived; this catches
        those memoized while it was queued); only the misses are solved,
        and a successful answer is memoized with its encoded body.  Every
        outcome, error or not, is the one ``solve`` gives for the load.
        The ``serving.query_many`` span covers that ``solve_many`` call
        only, so a batch the memo answers whole carries none.
        """
        # Keyed with the sign too: 0.0 == -0.0, but their errors differ.
        slots: dict[tuple[float, float], list[int]] = {}
        for i in grouped:
            load = requests[i].load
            slots.setdefault((load, math.copysign(1.0, load)), []).append(i)
        coalesced = len(grouped) - len(slots)
        if coalesced:
            self.coalesced += coalesced
            obs.count("serving.coalesced", coalesced)
        memo = self._answer_memo
        misses = []
        for key, positions in slots.items():
            outcome = memo.get(key[0])
            if outcome is None:
                misses.append(key)
            for i in positions:
                outcomes[i] = outcome
        if not misses:
            return
        with obs.trace.span(
            "serving.query_many", sink=self.telemetry.record_span,
            loads=len(misses),
        ):
            results = self.optimizer.solve_many([load for load, _ in misses])
        for key, result in zip(misses, results):
            if isinstance(result, OptimizationResult):
                result = EncodedResult(
                    self._allocation_payload(result.solution, result.method)
                )
                memo.put(key[0], result)
            for i in slots[key]:
                outcomes[i] = result

    def _allocation_payload(self, solution, method: str) -> dict:
        on_ids = [int(i) for i in solution.on_ids]
        loads = solution.loads.tolist()
        return {
            "method": method,
            "on_ids": on_ids,
            "machines_on": len(on_ids),
            "t_ac": float(solution.t_ac),
            "t_sp": float(solution.t_sp),
            "loads": {str(i): loads[i] for i in on_ids},
            "predicted_total_power": float(solution.predicted_total_power),
            "clamped": bool(solution.clamped),
            "repaired": bool(solution.repaired),
        }

    def _what_if(self, request: Request) -> dict:
        """A lookahead horizon, scored in one batched pass."""
        model = self.optimizer.model

        def feasible_entry(load: float, solution) -> dict:
            return {
                "load": float(load),
                "feasible": True,
                "machines_on": len(solution.on_ids),
                "t_sp": float(solution.t_sp),
                "predicted_total_power": float(
                    solution.predicted_total_power
                ),
            }

        def infeasible_entry(load: float, exc: Exception) -> dict:
            return {"load": float(load), "feasible": False,
                    "error": str(exc)}

        entries: list[dict] = []
        if request.on_ids is not None:
            # Pinned configuration: score the horizon against it.
            for load in request.loads:
                try:
                    solution = solve_closed_form(
                        model, list(request.on_ids), load
                    )
                    entries.append(feasible_entry(load, solution))
                except ReproError as exc:
                    entries.append(infeasible_entry(load, exc))
        else:
            for load, result in zip(
                request.loads, self.optimizer.solve_many(request.loads)
            ):
                if isinstance(result, OptimizationResult):
                    entries.append(feasible_entry(load, result.solution))
                else:
                    entries.append(infeasible_entry(load, result))
        return {"count": len(entries), "entries": entries}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _uptime(self) -> float:
        return time.monotonic() - self._started_at if self._started else 0.0

    def _slo(self, recorded: dict) -> dict:
        """The ``slo`` block: the store's violation tallies plus this
        daemon's SLO set-up and fail-stop message."""
        return {
            "configured": self._slo_watchdog is not None,
            "policy": self.config.slo_policy,
            **recorded,
            "failure": self.slo_failure,
        }

    def stats(self) -> dict:
        """JSON-safe metrics snapshot (the ``stats`` op's result)."""
        lifetime, _ = self.telemetry.read(windowed=False)
        return {
            "protocol": PROTOCOL_VERSION,
            "batching": self.config.batching,
            "batch_window_seconds": self.config.batch_window,
            "max_batch": self.config.max_batch,
            "draining": self._draining,
            "uptime_seconds": self._uptime(),
            "machines": self.optimizer.model.node_count,
            "index_statuses": self.index_statuses,
            "cache_key": self.index_cache_key,
            **lifetime,
            "inflight": self._inflight,
            "queue_depth": self._batcher.depth,
            "coalesced": self.coalesced,
            "answer_memo": self._answer_memo.stats(),
            "watchdog": {
                "stalls": self.stalls,
                "max_loop_lag_seconds": round(self.max_loop_lag, 6),
                "interval_seconds": self.config.watchdog_interval,
            },
            "slo": {
                **self._slo(lifetime["slo"]),
                "horizon_seconds": self.config.slo_horizon,
            },
        }

    def telemetry_payload(self, format: Optional[str] = None) -> dict:
        """The ``telemetry`` op's result: windowed JSON or Prometheus.

        The default JSON form is :meth:`ServingTelemetry.snapshot` plus
        the protocol/uptime stamps; ``format="prometheus"`` renders the
        same state as text exposition (v0.0.4) wrapped in an envelope
        carrying the scrape ``content_type``.
        """
        if format == "prometheus":
            return {
                "content_type": "text/plain; version=0.0.4",
                "text": obs.render_prometheus(self.prometheus_families()),
            }
        payload = self.telemetry.snapshot()
        payload["protocol"] = PROTOCOL_VERSION
        payload["uptime_seconds"] = self._uptime()
        payload["slo"] = self._slo(payload["slo"])
        return payload

    def prometheus_families(self) -> list[dict]:
        """The daemon's metrics as Prometheus metric families.

        Lifetime totals export as counters, point-in-time state as
        gauges, and the windowed views as gauges labelled by horizon
        (``window="10"`` means "over the last 10 seconds") — the shape
        :func:`repro.obs.export.render_prometheus` renders and the CI
        smoke job validates.
        """
        lifetime, snap = self.telemetry.read()
        memo = self._answer_memo.stats()

        def family(name, kind, help_text, samples):
            if not isinstance(samples, list):
                samples = [{"value": samples}]
            return {
                "name": f"repro_serving_{name}", "type": kind,
                "help": help_text, "samples": samples,
            }

        def by(label, counts):
            return [{"labels": {label: key}, "value": value}
                    for key, value in sorted(counts.items())]

        def per_window(view, key):
            return [{"labels": {"window": h}, "value": entry[key]}
                    for h, entry in snap[view].items()]

        return [
            family("uptime_seconds", "gauge",
                   "Seconds since the daemon finished starting.",
                   self._uptime()),
            family("requests_total", "counter",
                   "Requests handled since boot, by op.",
                   by("op", lifetime["requests"])),
            family("errors_total", "counter",
                   "Structured error responses since boot, by op.",
                   by("op", lifetime["errors"])),
            family("invalid_requests_total", "counter",
                   "Requests rejected before dispatch (bad JSON or shape).",
                   lifetime["invalid_requests"]),
            family("inflight", "gauge",
                   "Requests currently being served.", self._inflight),
            family("queue_depth", "gauge",
                   "Requests waiting in the micro-batcher queue.",
                   self._batcher.depth),
            family("batches_total", "counter",
                   "Batches dispatched to the compute thread since boot.",
                   lifetime["batches"]),
            family("coalesced_total", "counter",
                   "Duplicate in-batch loads answered from a shared solve.",
                   self.coalesced),
            family("answer_memo_hits_total", "counter",
                   "Admitted requests and distinct batch loads answered "
                   "from the answer memo.",
                   memo["hits"]),
            family("answer_memo_entries", "gauge",
                   "Answers held in the answer memo.", memo["entries"]),
            family("watchdog_stalls_total", "counter",
                   "Event-loop stalls beyond the configured threshold.",
                   self.stalls),
            family("request_rate", "gauge",
                   "Requests per second over the labelled window (seconds).",
                   per_window("requests", "rate")),
            family("error_rate", "gauge",
                   "Errors per second over the labelled window (seconds).",
                   per_window("errors", "rate")),
            family("latency_ms", "gauge",
                   "Request latency quantiles over the labelled window.",
                   [{"labels": {"window": h, "quantile": q},
                     "value": entry[key]}
                    for h, entry in snap["latency_ms"].items()
                    for q, key in (("0.5", "p50"), ("0.99", "p99"))]),
            family("batch_size_mean", "gauge",
                   "Mean dispatched batch size over the labelled window.",
                   per_window("batch_size", "mean")),
            family("queue_depth_max", "gauge",
                   "Peak sampled queue depth over the labelled window.",
                   per_window("queue_depth", "max")),
            family("slo_violations_total", "counter",
                   "SLO violations recorded since boot, by monitor.",
                   by("monitor", lifetime["slo"]["violations"])),
            family("slo_headroom", "gauge",
                   "Worst observed SLO headroom, by metric "
                   "(negative = burned).",
                   by("metric", lifetime["slo"]["worst_headroom"])),
        ]


@contextlib.contextmanager
def background_server(
    optimizer: JointOptimizer,
    config: Optional[ServingConfig] = None,
    start_timeout: float = 120.0,
):
    """Run an :class:`AllocationServer` on a daemon thread.

    The docs-and-tests convenience: starts the server's own event loop
    on a background thread, yields the started server (``.address``
    holds the bound transport), and drains it on exit — so examples and
    tests can talk to a real socket without managing asyncio.
    """
    server = AllocationServer(optimizer, config)
    ready = threading.Event()
    state: dict = {}

    async def _main() -> None:
        try:
            await server.start()
        except BaseException as exc:  # noqa: BLE001 — surfaced to caller
            state["error"] = exc
            ready.set()
            return
        state["loop"] = asyncio.get_running_loop()
        ready.set()
        await server._drained_event.wait()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()),
        name="repro-serve-loop",
        daemon=True,
    )
    thread.start()
    if not ready.wait(start_timeout):
        raise ConfigurationError(
            f"serving daemon did not start within {start_timeout}s"
        )
    if "error" in state:
        raise state["error"]
    try:
        yield server
    finally:
        future = asyncio.run_coroutine_threadsafe(
            server.drain(), state["loop"]
        )
        with contextlib.suppress(Exception):
            future.result(timeout=server.config.drain_grace + 30.0)
        thread.join(timeout=30.0)
