"""In-process load generator for the serving daemon.

Simulates N concurrent clients against an :class:`AllocationServer`
without sockets: every client is an asyncio task calling
:meth:`~repro.serving.server.AllocationServer.handle` directly, so the
measured difference between batched and unbatched runs is the queueing
and compute discipline — not TCP accept limits or client-side
scheduling noise.  This is how ``benchmarks/bench_serving.py`` reaches
100k concurrent clients on one core.

The workload is *telemetry-quantized*: offered loads are drawn from a
small set of discrete levels (:func:`quantized_loads`), the way a real
front end reports demand in rounded steps.  Quantization is what gives
micro-batching its coalescing surface — concurrent requests for the
same level are answered once per batch.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError
from repro.serving.server import AllocationServer, ServingConfig


def quantized_loads(
    requests: int,
    capacity: float,
    levels: int = 48,
    low: float = 0.1,
    high: float = 0.8,
    seed: int = 0,
) -> list[float]:
    """``requests`` offered loads drawn from ``levels`` discrete steps.

    Levels are evenly spaced over ``[low, high] * capacity`` and drawn
    uniformly with a seeded generator, so runs are reproducible and the
    batched/unbatched comparison sees the identical request stream.
    """
    if requests < 1:
        raise ConfigurationError(f"requests must be positive, got {requests}")
    if levels < 1:
        raise ConfigurationError(f"levels must be positive, got {levels}")
    if not 0.0 < low < high <= 1.0:
        raise ConfigurationError(
            f"need 0 < low < high <= 1, got low={low} high={high}"
        )
    grid = np.linspace(low * capacity, high * capacity, levels)
    rng = np.random.default_rng(seed)
    return [float(v) for v in grid[rng.integers(0, levels, size=requests)]]


@dataclass(frozen=True)
class LoadgenReport:
    """One load-generation run, summarized for ``serving.json``."""

    clients: int
    batching: bool
    batch_window_seconds: float
    max_batch: int
    requests: int
    errors: int
    duration_seconds: float
    latencies: np.ndarray  # seconds, one per completed request
    batches: int
    mean_batch_size: float
    max_batch_size: int
    coalesced: int
    batch_sizes: dict  # dispatch size -> count of dispatches

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.duration_seconds

    def percentile_ms(self, q: float) -> float:
        """Exact latency percentile over every request, milliseconds."""
        return float(np.percentile(self.latencies, q) * 1e3)

    def entry(self, identical_answers: bool = False) -> dict:
        """The schema-validated ``serving.json`` entry for this run."""
        return {
            "clients": self.clients,
            "batching": self.batching,
            "batch_window_seconds": self.batch_window_seconds,
            "max_batch": self.max_batch,
            "requests": self.requests,
            "errors": self.errors,
            "duration_seconds": self.duration_seconds,
            "requests_per_second": self.requests_per_second,
            "latency_mean_ms": float(np.mean(self.latencies) * 1e3),
            "latency_p50_ms": self.percentile_ms(50.0),
            "latency_p99_ms": self.percentile_ms(99.0),
            "batches": self.batches,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size": self.max_batch_size,
            "coalesced": self.coalesced,
            "identical_answers": identical_answers,
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(self.batch_sizes.items())
            },
        }


def run_load(
    optimizer: JointOptimizer,
    loads: list[float],
    batching: bool = True,
    batch_window: float = 0.005,
    max_batch: int = 512,
) -> tuple[LoadgenReport, list[dict]]:
    """One run: ``len(loads)`` concurrent clients, one ``allocate`` each.

    Builds a fresh transport-less :class:`AllocationServer` (so batch
    statistics are per-run), launches every client as a task in the
    same tick — the "everyone hits the daemon at once" worst case —
    and waits for all responses plus a full drain.

    Returns the report and the raw result payloads (request order), so
    the benchmark can cross-check answers against direct library calls.
    Raises :class:`ConfigurationError` if any request failed: the
    benchmark workload is designed to be fully feasible, so an error
    means a bug, not an expected outcome.
    """
    config = ServingConfig(
        batch_window=batch_window, max_batch=max_batch, batching=batching
    )
    server = AllocationServer(optimizer, config)
    latencies = np.zeros(len(loads))
    results: list = [None] * len(loads)

    async def _client(k: int, load: float) -> None:
        t0 = time.perf_counter()
        response = await server.handle(
            {"op": "allocate", "id": k, "load": load}
        )
        latencies[k] = time.perf_counter() - t0
        results[k] = response

    async def _main() -> float:
        await server.start()
        tasks = [
            asyncio.ensure_future(_client(k, load))
            for k, load in enumerate(loads)
        ]
        t0 = time.perf_counter()
        await asyncio.gather(*tasks)
        duration = time.perf_counter() - t0
        await server.drain()
        return duration

    duration = asyncio.run(_main())
    failed = [r for r in results if not r["ok"]]
    if failed:
        raise ConfigurationError(
            f"{len(failed)} requests failed; first: {failed[0]['error']}"
        )
    stats = server.stats()
    report = LoadgenReport(
        clients=len(loads),
        batching=batching,
        batch_window_seconds=batch_window,
        max_batch=max_batch,
        requests=len(loads),
        errors=0,
        duration_seconds=duration,
        latencies=latencies,
        batches=stats["batches"],
        mean_batch_size=stats["mean_batch_size"],
        max_batch_size=stats["max_batch_size"],
        coalesced=stats["coalesced"],
        batch_sizes={
            int(size): count
            for size, count in stats["batch_size_histogram"].items()
        },
    )
    return report, [r["result"] for r in results]
