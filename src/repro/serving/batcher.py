"""The async micro-batching collector behind the serving daemon.

Concurrent requests are coalesced into one dispatch: the first request
of a batch arms a collection window (``batch_window`` seconds); every
request that arrives before the window closes — or before the batch
reaches ``max_batch`` — rides along, and the whole batch is handed to
the dispatch callable at once.  While a batch is computing, the next
one keeps filling ("collect while computing"), so under sustained load
the effective batch size grows toward ``max_batch`` without any
request waiting longer than one window plus one dispatch.

Why this is the right lever here: the downstream work is dominated by
:meth:`repro.core.consolidation.ConsolidationIndex.query_many`, whose
batched contract (one vectorized ``searchsorted`` pass, duplicate
loads answered once, shared refined-scan caches — see
``docs/algorithms.md``) makes a batch of queries far cheaper than the
same queries issued one at a time.  The batcher converts *concurrency*
(many clients in flight) into *batches* (one indexed pass), which is
exactly the transformation ``benchmarks/bench_serving.py`` measures.

With ``batching=False`` the collector degenerates to strict one-at-a-
time dispatch through the same queue and future machinery — the
apples-to-apples baseline for the benchmark.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Optional

from repro import obs
from repro.errors import ConfigurationError, ServingUnavailableError

#: Queue sentinel that tells the worker to finish and exit.
_STOP = object()

#: Dispatch callable: a batch of requests in, one outcome per request
#: out (a result mapping, or an exception instance to deliver).
DispatchFn = Callable[[list], Awaitable[list]]


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into batched dispatches.

    Parameters
    ----------
    dispatch:
        Async callable receiving the batch (a list of requests) and
        returning one outcome per request, positionally: a result to
        resolve the caller's future with, or an :class:`Exception`
        instance to raise into the caller.
    batch_window:
        Seconds the first request of a batch waits for company.  ``0``
        disables the timed wait (opportunistic same-tick coalescing
        still happens via queue draining).
    max_batch:
        Hard cap on requests per dispatch.
    batching:
        ``False`` forces singleton dispatches (the benchmark baseline).
    on_batch:
        Optional callback invoked with each dispatched batch's size —
        the batcher keeps no tallies of its own; this is how the server
        records batch sizes in its telemetry store without the batcher
        importing the telemetry layer.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        batch_window: float = 0.005,
        max_batch: int = 256,
        batching: bool = True,
        on_batch: Optional[Callable[[int], None]] = None,
    ) -> None:
        if batch_window < 0.0:
            raise ConfigurationError(
                f"batch_window must be non-negative, got {batch_window}"
            )
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be at least 1, got {max_batch}"
            )
        self._dispatch = dispatch
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.batching = bool(batching)
        self.on_batch = on_batch
        self._queue: Optional[asyncio.Queue] = None
        self._worker: Optional[asyncio.Task] = None
        self._draining = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Create the queue and the worker task (requires a running
        event loop)."""
        if self._worker is not None:
            raise ConfigurationError("batcher is already started")
        self._draining = False
        self._queue = asyncio.Queue()
        self._worker = asyncio.create_task(
            self._run(), name="repro-serve-batcher"
        )

    async def drain(self) -> None:
        """Finish every accepted request, then stop the worker.

        New :meth:`submit` calls fail with
        :class:`~repro.errors.ServingUnavailableError` the moment drain
        begins; everything already queued (or mid-batch) completes and
        resolves its caller's future before the worker exits.
        """
        if self._queue is None:
            return
        if not self._draining:
            self._draining = True
            self._queue.put_nowait(_STOP)
        if self._worker is not None:
            await self._worker
            self._worker = None
            self._queue = None

    @property
    def depth(self) -> int:
        """Requests currently queued (excludes the batch in dispatch)."""
        return 0 if self._queue is None else self._queue.qsize()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    async def submit(self, request: Any) -> Any:
        """Queue ``request`` and wait for its batched outcome.

        Raises whatever exception the dispatcher returned for this
        request, or :class:`~repro.errors.ServingUnavailableError` when
        the batcher is draining or not started.
        """
        if self._queue is None or self._draining:
            raise ServingUnavailableError(
                "serving batcher is not accepting requests "
                "(draining or not started)"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._queue.put_nowait((request, future, loop.time()))
        return await future

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #

    async def _collect(self) -> tuple[list, bool]:
        """Gather the next batch; returns ``(items, stop_seen)``."""
        queue = self._queue
        assert queue is not None
        first = await queue.get()
        if first is _STOP:
            return [], True
        items = [first]
        stop = False
        loop = asyncio.get_running_loop()
        if self.batching:
            # Opportunistic same-tick coalescing: anything already
            # queued joins for free (this is what keeps batches full
            # while a previous dispatch is computing).
            while len(items) < self.max_batch:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    return items, True
                items.append(nxt)
            # Timed collection window for company still on the wire,
            # counted from the first request's arrival.
            deadline = first[2] + self.batch_window
            while len(items) < self.max_batch:
                timeout = deadline - loop.time()
                if timeout <= 0.0:
                    break
                try:
                    nxt = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
                if nxt is _STOP:
                    stop = True
                    break
                items.append(nxt)
        return items, stop

    async def _run(self) -> None:
        stop = False
        while not stop:
            items, stop = await self._collect()
            if not items:
                break
            obs.observe("serving.batch_size", len(items))
            if self.on_batch is not None:
                self.on_batch(len(items))
            requests = [request for request, _, _ in items]
            try:
                outcomes = await self._dispatch(requests)
                if len(outcomes) != len(items):
                    raise ConfigurationError(
                        f"dispatch returned {len(outcomes)} outcomes "
                        f"for a batch of {len(items)}"
                    )
            except Exception as exc:  # noqa: BLE001 — worker must survive
                outcomes = [exc] * len(items)
            for (_, future, _), outcome in zip(items, outcomes):
                if future.cancelled():
                    continue
                if isinstance(outcome, Exception):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)
