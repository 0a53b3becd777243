"""The daemon's three metric views, pinned, and the surface the benchmark
harness patches.

One in-process server answers a scripted mix — coalesced duplicate
allocates, a memo hit, an infeasible load, malformed and unknown-op
lines, a ``what-if``, the introspection ops, and an allocate refused
while draining — under a frozen telemetry clock.  The test then pins
every key of ``stats()`` and of the ``telemetry`` JSON with every
count-valued field (uptime and latency values vary run to run and are
left out), and the Prometheus family names, types and count samples.
"""

import asyncio

from repro import JointOptimizer, obs
from repro.obs import TraceBuffer
from repro.serving import AllocationServer, ServingConfig
from repro.testbed.synthetic import make_system_model

#: The frozen telemetry clock: every windowed observation lands in one
#: bucket, so windowed totals and rates are exact.
NOW = 100.0

HORIZONS = ("10", "60", "300")


def _optimizer() -> JointOptimizer:
    return JointOptimizer(make_system_model(n=4))


def _allocate(load, request_id):
    return {"op": "allocate", "id": request_id, "load": load}


def _scripted_views():
    optimizer = _optimizer()
    capacity = sum(optimizer.model.capacities)
    low, high = 0.3 * capacity, 0.5 * capacity

    async def main():
        server = AllocationServer(optimizer, ServingConfig(
            batch_window=0.02, watchdog_interval=60.0,
            slo_p99_ms=60000.0,
        ))
        server.telemetry.clock = lambda: NOW
        await server.start()
        replies = {"ping": await server.handle({"op": "ping", "id": 0})}
        # One batch of six: four duplicates of one load, two of another.
        replies["coalesced"] = await asyncio.gather(*(
            server.handle(_allocate(load, k))
            for k, load in enumerate([low, low, low, low, high, high])
        ))
        replies["memo_hit"] = await server.handle(_allocate(low, 6))
        replies["infeasible"] = await server.handle(
            _allocate(5.0 * capacity, 7)
        )
        replies["malformed"] = await server.handle("{broken json")
        replies["unknown"] = await server.handle({"op": "teleport", "id": 8})
        replies["what_if"] = await server.handle(
            {"op": "what-if", "id": 9, "loads": [low, 5.0 * capacity]}
        )
        replies["stats"] = await server.handle({"op": "stats", "id": 10})
        replies["telemetry"] = await server.handle(
            {"op": "telemetry", "id": 11}
        )
        replies["prometheus"] = await server.handle(
            {"op": "telemetry", "id": 12, "format": "prometheus"}
        )
        replies["trace"] = await server.handle({"op": "trace", "id": 13})
        drain = asyncio.create_task(server.drain())
        await asyncio.sleep(0)
        replies["refused"] = await server.handle(_allocate(low, 14))
        await drain
        return (
            replies, server.stats(), server.telemetry_payload(),
            server.prometheus_families(),
        )

    return asyncio.run(main())


def _windowed_counter(total):
    return {h: {"total": total, "rate": total / float(h)} for h in HORIZONS}


def _windowed_values(count, mean=0.0, low=0.0, high=0.0, p50=0.0, p99=0.0):
    return {h: {
        "count": count, "rate": count / float(h), "mean": mean,
        "min": low, "max": high, "p50": p50, "p99": p99, "sampled": False,
    } for h in HORIZONS}


def _interpolated(ordered, q):
    """The ``q``-th percentile the metrics module interpolates."""
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac


def _counts_only(latency):
    """A ``stats`` latency block with its timing values dropped."""
    assert all(
        set(entry) == {"count", "mean_ms", "p50_ms", "p99_ms"}
        for entry in latency.values()
    )
    return {op: entry["count"] for op, entry in latency.items()}


def _windowed_counts(summary):
    """A windowed latency summary with only its exact counts kept."""
    assert all(
        set(entry) == {"count", "rate", "mean", "min", "max", "p50", "p99",
                       "sampled"}
        for entry in summary.values()
    )
    return {h: entry["count"] for h, entry in summary.items()}


class TestGoldenViews:
    def test_every_reply_of_the_script(self):
        replies, *_ = _scripted_views()
        assert replies["ping"]["ok"]
        assert all(r["ok"] for r in replies["coalesced"])
        assert replies["memo_hit"]["result"] == replies["coalesced"][0][
            "result"
        ]
        assert replies["infeasible"]["error"]["type"] == "InfeasibleError"
        assert replies["malformed"]["id"] is None
        assert replies["malformed"]["error"]["type"] == "ConfigurationError"
        assert replies["unknown"]["id"] == 8
        assert replies["what_if"]["ok"]
        assert replies["refused"]["error"]["type"] == (
            "ServingUnavailableError"
        )
        assert replies["trace"]["result"]["events"] == 0
        # 3 batches, 2 query_many passes and 9 request spans: the memo
        # hit is answered on admission and forms no batch.
        assert replies["trace"]["result"]["spans"] == 14
        buffer = TraceBuffer.from_jsonl(replies["trace"]["result"]["jsonl"])
        hits = [
            s for s in buffer.spans_named("serving.request")
            if s.attributes.get("memo_hit")
        ]
        assert [s.attributes["request_id"] for s in hits] == [6]
        assert "batch_span_id" not in hits[0].attributes

    def test_stats(self):
        replies, stats, _, _ = _scripted_views()
        expected_requests = {
            "ping": 1, "allocate": 9, "what-if": 1, "stats": 1,
            "telemetry": 2, "trace": 1,
        }
        # The memo hit forms no batch: 3 batches carry 8 of the 9
        # allocate and what-if requests.
        batches = {
            "batches": 3,
            "mean_batch_size": 8 / 3,
            "max_batch_size": 6,
            "batch_size_histogram": {"1": 2, "6": 1},
            "coalesced": 4,
        }
        memo = stats.pop("answer_memo")
        assert memo.pop("body_bytes") > 0
        assert memo == {"entries": 2, "hits": 1, "evictions": 0}
        assert len(stats.pop("cache_key")) == 64
        assert stats.pop("uptime_seconds") >= 0.0
        assert _counts_only(stats.pop("latency")) == {
            "ping": 1, "allocate": 9, "what-if": 1, "stats": 1,
            "telemetry": 2, "trace": 1,
        }
        assert stats == {
            "protocol": 2,
            "batching": True,
            "batch_window_seconds": 0.02,
            "max_batch": 512,
            "draining": True,
            "machines": 4,
            "index_statuses": stats["index_statuses"],
            "requests": expected_requests,
            "errors": {"allocate": 2},
            "invalid_requests": 2,
            "inflight": 0,
            "queue_depth": 0,
            **batches,
            "watchdog": {
                "stalls": 0,
                "max_loop_lag_seconds": 0.0,
                "interval_seconds": 60.0,
            },
            "slo": {
                "configured": True,
                "policy": "warn",
                "horizon_seconds": 60.0,
                "violations": {},
                "worst_headroom": {},
                "failure": None,
            },
        }
        assert stats["index_statuses"] >= 1
        # Of the 10 allocate and what-if requests, two never reach the
        # batcher: the one refused while draining and the memo hit.
        refused = 1
        assert sum(
            int(size) * count
            for size, count in stats["batch_size_histogram"].items()
        ) == (
            expected_requests["allocate"] + expected_requests["what-if"]
            - refused - memo["hits"]
        )
        # The stats reply counts itself and everything finished before.
        wire = replies["stats"]["result"]
        assert wire["requests"] == {
            "ping": 1, "allocate": 8, "what-if": 1, "stats": 1,
        }
        assert wire["errors"] == {"allocate": 1}
        assert wire["invalid_requests"] == 2
        assert wire["draining"] is False
        assert {k: wire[k] for k in batches} == batches
        assert _counts_only(wire["latency"]) == {
            "ping": 1, "allocate": 8, "what-if": 1,
        }
        assert set(wire) == set(stats) | {
            "answer_memo", "cache_key", "uptime_seconds", "latency",
        }

    def test_telemetry_json(self):
        replies, _, payload, _ = _scripted_views()
        assert payload.pop("uptime_seconds") >= 0.0
        by_op = {
            op: _windowed_counts(summary)
            for op, summary in payload.pop("latency_ms_by_op").items()
        }
        assert by_op == {
            op: dict.fromkeys(HORIZONS, count) for op, count in {
                "allocate": 9, "ping": 1, "stats": 1, "telemetry": 2,
                "trace": 1, "what-if": 1,
            }.items()
        }
        assert _windowed_counts(payload.pop("latency_ms")) == dict.fromkeys(
            HORIZONS, 15
        )
        # The memo hit is a timed allocate request (9 above) that adds
        # no batch-size sample (3 below).
        assert payload == {
            "window_seconds": 300.0,
            "horizons": [10.0, 60.0, 300.0],
            "requests": _windowed_counter(15.0),
            "errors": _windowed_counter(2.0),
            "queue_depth": _windowed_values(0),
            "batch_size": _windowed_values(
                3, mean=8 / 3, low=1.0, high=6.0, p50=1.0,
                p99=_interpolated([1.0, 1.0, 6.0], 99.0),
            ),
            "loop_lag_seconds": _windowed_values(0),
            "slo": {
                "violations": {},
                "worst_headroom": {},
                "configured": True,
                "policy": "warn",
                "failure": None,
            },
            "trace": {
                "recent_spans": 14,
                "recent_events": 0,
                "pending_export": 0,
            },
            "protocol": 2,
        }
        # The wire reply sees every request finished before it.
        wire = replies["telemetry"]["result"]
        assert set(wire) == set(payload) | {
            "uptime_seconds", "latency_ms", "latency_ms_by_op",
        }
        assert wire["requests"] == _windowed_counter(11.0)
        assert wire["errors"] == _windowed_counter(1.0)
        assert set(wire["latency_ms_by_op"]) == {
            "allocate", "ping", "stats", "what-if",
        }

    def test_prometheus(self):
        replies, _, _, families = _scripted_views()
        shape = [(f["name"], f["type"]) for f in families]
        assert shape == [
            ("repro_serving_uptime_seconds", "gauge"),
            ("repro_serving_requests_total", "counter"),
            ("repro_serving_errors_total", "counter"),
            ("repro_serving_invalid_requests_total", "counter"),
            ("repro_serving_inflight", "gauge"),
            ("repro_serving_queue_depth", "gauge"),
            ("repro_serving_batches_total", "counter"),
            ("repro_serving_coalesced_total", "counter"),
            ("repro_serving_answer_memo_hits_total", "counter"),
            ("repro_serving_answer_memo_entries", "gauge"),
            ("repro_serving_watchdog_stalls_total", "counter"),
            ("repro_serving_request_rate", "gauge"),
            ("repro_serving_error_rate", "gauge"),
            ("repro_serving_latency_ms", "gauge"),
            ("repro_serving_batch_size_mean", "gauge"),
            ("repro_serving_queue_depth_max", "gauge"),
            ("repro_serving_slo_violations_total", "counter"),
            ("repro_serving_slo_headroom", "gauge"),
        ]
        samples = {f["name"]: f["samples"] for f in families}
        assert samples["repro_serving_requests_total"] == [
            {"labels": {"op": op}, "value": count} for op, count in (
                ("allocate", 9), ("ping", 1), ("stats", 1),
                ("telemetry", 2), ("trace", 1), ("what-if", 1),
            )
        ]
        assert samples["repro_serving_errors_total"] == [
            {"labels": {"op": "allocate"}, "value": 2}
        ]
        single = {
            "repro_serving_invalid_requests_total": 2,
            "repro_serving_inflight": 0,
            "repro_serving_queue_depth": 0,
            "repro_serving_batches_total": 3,
            "repro_serving_coalesced_total": 4,
            # The memo hit counts here and in requests_total, not in
            # batches_total.
            "repro_serving_answer_memo_hits_total": 1,
            "repro_serving_answer_memo_entries": 2,
            "repro_serving_watchdog_stalls_total": 0,
        }
        for name, value in single.items():
            assert samples[name] == [{"value": value}], name
        per_window = {
            "repro_serving_request_rate": [15.0 / float(h) for h in HORIZONS],
            "repro_serving_error_rate": [2.0 / float(h) for h in HORIZONS],
            "repro_serving_batch_size_mean": [8 / 3] * 3,
            "repro_serving_queue_depth_max": [0.0] * 3,
        }
        for name, values in per_window.items():
            assert samples[name] == [
                {"labels": {"window": h}, "value": value}
                for h, value in zip(HORIZONS, values)
            ], name
        assert [s["labels"] for s in samples["repro_serving_latency_ms"]] == [
            {"window": h, "quantile": q} for h in HORIZONS
            for q in ("0.5", "0.99")
        ]
        assert samples["repro_serving_slo_violations_total"] == []
        assert samples["repro_serving_slo_headroom"] == []
        # The wire scrape renders the same families, counting itself.
        wire = replies["prometheus"]["result"]
        assert obs.validate_prometheus(wire["text"])["families"] == len(shape)
        lines = wire["text"].splitlines()
        assert 'repro_serving_requests_total{op="telemetry"} 2' in lines
        assert 'repro_serving_requests_total{op="allocate"} 8' in lines
        assert 'repro_serving_errors_total{op="allocate"} 1' in lines
        assert "repro_serving_batches_total 3" in lines


class TestBenchmarkSurface:
    """The attributes a benchmark harness reads, writes or patches on a
    live server instance."""

    def test_max_loop_lag_assignment_resets_the_stats_reading(self):
        async def main():
            server = AllocationServer(_optimizer(), ServingConfig())
            await server.start()
            try:
                server.max_loop_lag = 0.125
                before = server.stats()["watchdog"]["max_loop_lag_seconds"]
                server.max_loop_lag = 0.0
                after = server.stats()["watchdog"]["max_loop_lag_seconds"]
            finally:
                await server.drain()
            return before, after

        assert asyncio.run(main()) == (0.125, 0.0)

    def test_instance_patches_are_the_ones_called(self):
        optimizer = _optimizer()
        capacity = sum(optimizer.model.capacities)
        calls = {"submit": 0, "dispatch": 0, "compute": 0}

        async def main():
            server = AllocationServer(
                optimizer, ServingConfig(batch_window=0.02)
            )
            batcher = server._batcher
            submit, dispatch = batcher.submit, batcher._dispatch
            compute = server._compute_batch

            async def counted_submit(request):
                calls["submit"] += 1
                return await submit(request)

            async def counted_dispatch(batch):
                calls["dispatch"] += 1
                return await dispatch(batch)

            def counted_compute(batch):
                calls["compute"] += 1
                return compute(batch)

            batcher.submit = counted_submit
            batcher._dispatch = counted_dispatch
            server._compute_batch = counted_compute
            await server.start()
            try:
                replies = await asyncio.gather(*(
                    server.handle(_allocate(0.4 * capacity, k))
                    for k in range(3)
                ))
                coalesced = server.coalesced
            finally:
                await server.drain()
            return replies, coalesced

        replies, coalesced = asyncio.run(main())
        assert all(r["ok"] for r in replies)
        assert calls == {"submit": 3, "dispatch": 1, "compute": 1}
        assert type(coalesced) is int and coalesced == 2
