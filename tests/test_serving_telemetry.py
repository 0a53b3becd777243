"""Serving telemetry tests: windowed metrics, spans, SLOs, bench gate.

Covers the live-observability layer end to end: the windowed obs
primitives (ring-of-buckets counters/histograms and their honesty
flags), the rotating span exporter (lossless at rotation boundaries,
oldest-whole-file truncation), the daemon-private span store under
concurrency, the serving SLO monitors under both policies, the
request -> batch -> query_many span chain retrieved over the wire,
and the ``repro bench-check`` regression gate.
"""

import json
import pathlib
import threading
import time

import pytest

from repro import JointOptimizer, obs
from repro.analysis.benchcheck import (
    CheckReport,
    CheckRow,
    check_benchmarks,
    compare_documents,
    render_report,
    update_baselines,
)
from repro.analysis.report import render_top
from repro.errors import ConfigurationError, ConstraintViolationError
from repro.obs import (
    Histogram,
    RotatingTraceExporter,
    SlidingHistogram,
    TraceBuffer,
    WatchdogSet,
    WindowedCounter,
    read_rotated_trace,
    serving_monitors,
)
from repro.obs.metrics import MAX_WINDOW_BUCKET_SAMPLES
from repro.serving import (
    ServingClient,
    ServingConfig,
    ServingTelemetry,
    background_server,
)
from repro.testbed.synthetic import make_system_model

REPO = pathlib.Path(__file__).parent.parent


def _optimizer(n: int = 4) -> JointOptimizer:
    return JointOptimizer(make_system_model(n=n))


class TestWindowedCounter:
    def test_totals_and_rates_per_horizon(self):
        counter = WindowedCounter("req", window=60.0, bucket_seconds=1.0)
        for t in range(30):
            counter.inc(2.0, now=float(t))
        assert counter.total(10.0, now=30.0) == 18.0  # t=21..29
        assert counter.total(60.0, now=30.0) == 60.0
        assert counter.rate(10.0, now=30.0) == pytest.approx(1.8)

    def test_old_buckets_expire(self):
        counter = WindowedCounter("req", window=10.0, bucket_seconds=1.0)
        counter.inc(5.0, now=0.0)
        assert counter.total(10.0, now=5.0) == 5.0
        assert counter.total(10.0, now=50.0) == 0.0

    def test_horizon_validation(self):
        counter = WindowedCounter("req", window=10.0)
        with pytest.raises(ConfigurationError):
            counter.total(11.0, now=0.0)
        with pytest.raises(ConfigurationError):
            counter.total(0.0, now=0.0)
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0, now=0.0)

    def test_summary_shape(self):
        counter = WindowedCounter("req", window=300.0)
        counter.inc(3.0, now=100.0)
        summary = counter.summary(horizons=(10.0, 300.0), now=100.0)
        assert summary == {
            "10": {"total": 3.0, "rate": 0.3},
            "300": {"total": 3.0, "rate": 0.01},
        }


class TestSlidingHistogram:
    def test_exact_percentiles_within_window(self):
        hist = SlidingHistogram("lat", window=60.0, bucket_seconds=1.0)
        for t in range(20):
            hist.observe(float(t), now=float(t))
        # Horizon 10 at now=20 sees t=11..19 only.
        assert hist.count(10.0, now=20.0) == 9
        assert hist.min_value(10.0, now=20.0) == 11.0
        assert hist.percentile(100.0, 10.0, now=20.0) == 19.0
        assert hist.sampled(10.0, now=20.0) is False

    def test_windowed_p99_diverges_from_lifetime_under_load_step(self):
        """The acceptance demo: a recovered daemon looks recovered.

        Slow regime early, fast regime after: the lifetime p99 stays
        pinned to the old slow requests while the 10 s window reflects
        the current behaviour.
        """
        lifetime = Histogram("latency_ms")
        windowed = SlidingHistogram("latency_ms", window=60.0)
        for t in range(100):
            value = 100.0 if t < 10 else 5.0   # step down at t=10
            lifetime.observe(value)
            windowed.observe(value, now=float(t))
        assert lifetime.percentile(99.0) > 90.0       # stuck in the past
        assert windowed.percentile(99.0, 10.0, now=100.0) == 5.0

    def test_reservoir_kicks_in_past_bucket_cap(self):
        hist = SlidingHistogram("lat", window=10.0, bucket_seconds=1.0)
        for _ in range(MAX_WINDOW_BUCKET_SAMPLES + 100):
            hist.observe(1.0, now=5.0)
        assert hist.count(10.0, now=5.0) == MAX_WINDOW_BUCKET_SAMPLES + 100
        assert hist.sampled(10.0, now=5.0) is True
        summary = hist.summary(horizons=(10.0,), now=5.0)
        assert summary["10"]["sampled"] is True
        assert summary["10"]["p99"] == 1.0            # still exact values

    def test_summary_keys(self):
        hist = SlidingHistogram("lat", window=300.0)
        hist.observe(7.0, now=0.0)
        summary = hist.summary(now=0.0)
        assert set(summary) == {"10", "60", "300"}
        assert set(summary["10"]) == {
            "count", "rate", "mean", "min", "max", "p50", "p99", "sampled"
        }


class TestLifetimeHistogramHonesty:
    def test_summary_silent_until_downsampled(self):
        hist = Histogram("h")
        hist.observe(1.0)
        assert "sampled" not in hist.summary()
        assert hist.sampled is False

    def test_summary_declares_downsampling(self):
        hist = Histogram("h")
        for i in range(obs.MAX_HISTOGRAM_SAMPLES + 50):
            hist.observe(float(i))
        summary = hist.summary()
        assert summary["sampled"] is True
        assert summary["samples"] == hist.samples_retained
        assert summary["samples"] < summary["count"]

    def test_snapshot_round_trip_keeps_retained_count(self):
        hist = Histogram("h")
        for i in range(obs.MAX_HISTOGRAM_SAMPLES + 50):
            hist.observe(float(i))
        registry = obs.MetricsRegistry()
        registry.histograms["h"] = hist
        snapshot = json.loads(registry.to_json())
        restored = obs.MetricsRegistry.from_snapshot(snapshot)
        assert restored.snapshot() == snapshot


class TestRotatingExporter:
    def _spans(self, buffer_start: int, count: int) -> list:
        telemetry = ServingTelemetry(window=10.0, horizons=(10.0,))
        out = []
        for i in range(count):
            span = telemetry.start_span("s", index=buffer_start + i)
            telemetry.end_span(span)
            out.append(span)
        return out

    def test_rotation_is_lossless_at_the_boundary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = RotatingTraceExporter(path, max_bytes=400, keep_files=8)
        total = 0
        for batch in range(6):
            spans = self._spans(batch * 10, 10)
            exporter.write(spans, [])
            total += len(spans)
        files = exporter.files()
        assert len(files) > 1                       # rotation happened
        # Every rotated file is a self-contained trace document.
        per_file = [
            TraceBuffer.from_jsonl(f.read_text()).summary()["spans"]
            for f in files
        ]
        assert sum(per_file) == total               # nothing lost
        merged = read_rotated_trace(path)
        assert len(merged.spans) == total
        indices = sorted(s.attributes["index"] for s in merged.spans)
        assert indices == sorted(
            batch * 10 + i for batch in range(6) for i in range(10)
        )

    def test_keep_files_drops_oldest_whole_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = RotatingTraceExporter(path, max_bytes=400, keep_files=2)
        for batch in range(8):
            exporter.write(self._spans(batch * 10, 10), [])
        files = exporter.files()
        # keep_files bounds the *rotated* set; the active file rides on top.
        assert len(files) <= 3
        merged = read_rotated_trace(path)
        # The newest batches survive intact; each file still parses.
        newest = max(s.attributes["index"] for s in merged.spans)
        assert newest == 79


class TestServingTelemetrySpans:
    def test_concurrent_linkage_survives_round_trips(self):
        telemetry = ServingTelemetry(window=60.0, horizons=(60.0,))

        def worker(worker_id: int) -> None:
            for i in range(25):
                request = telemetry.start_span(
                    "serving.request", worker=worker_id, seq=i
                )
                batch = telemetry.start_span("serving.batch")
                child = telemetry.start_span(
                    "serving.query_many", parent=batch
                )
                telemetry.annotate(request, batch_span_id=batch.span_id)
                telemetry.end_span(child)
                telemetry.end_span(batch)
                telemetry.end_span(request, ok=True)

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        tail = telemetry.trace_tail(limit=1000)
        assert tail["spans"] == 300
        buffer = TraceBuffer.from_jsonl(tail["jsonl"])
        span_ids = {s.span_id for s in buffer.spans}
        assert len(span_ids) == 300                 # no id collisions
        by_id = {s.span_id: s for s in buffer.spans}
        requests = [s for s in buffer.spans if s.name == "serving.request"]
        assert len(requests) == 100
        for request in requests:
            batch = by_id[request.attributes["batch_span_id"]]
            assert batch.name == "serving.batch"
        children = [
            s for s in buffer.spans if s.name == "serving.query_many"
        ]
        for child in children:
            assert by_id[child.parent_id].name == "serving.batch"
        # Chrome round trip preserves the same topology.
        chrome = TraceBuffer.from_chrome_trace(buffer.to_chrome_trace())
        assert chrome.summary() == buffer.summary()
        for child in chrome.spans:
            if child.name == "serving.query_many":
                assert child.parent_id in span_ids

    def test_trace_tail_respects_limit_and_cap(self):
        telemetry = ServingTelemetry(window=10.0, horizons=(10.0,))
        for i in range(30):
            telemetry.end_span(telemetry.start_span("s", index=i))
        tail = telemetry.trace_tail(limit=5)
        assert tail["spans"] == 5
        buffer = TraceBuffer.from_jsonl(tail["jsonl"])
        assert sorted(s.attributes["index"] for s in buffer.spans) == [
            25, 26, 27, 28, 29
        ]

    def test_horizons_validated_against_window(self):
        with pytest.raises(ConfigurationError):
            ServingTelemetry(window=60.0, horizons=(10.0, 300.0))
        with pytest.raises(ConfigurationError):
            ServingTelemetry(window=60.0, horizons=())


class TestServingTelemetrySnapshot:
    def _loaded(self) -> ServingTelemetry:
        clock = {"t": 0.0}
        telemetry = ServingTelemetry(
            window=60.0, horizons=(10.0, 60.0),
            clock=lambda: clock["t"],
        )
        for step in range(30):
            clock["t"] = float(step)
            telemetry.observe_request(
                "allocate", 0.005 if step < 20 else 0.080,
                error=step == 25,
            )
            telemetry.observe_queue_depth(step % 7)
            telemetry.observe_batch(4)
        clock["t"] = 29.0
        return telemetry

    def test_snapshot_windows_diverge(self):
        snap = self._loaded().snapshot()
        assert snap["latency_ms"]["10"]["p99"] == 80.0
        assert snap["latency_ms"]["60"]["p50"] == 5.0
        assert snap["requests"]["10"]["total"] == 10.0
        assert snap["errors"]["10"]["total"] == 1.0
        assert snap["queue_depth"]["10"]["max"] == 6.0
        assert snap["batch_size"]["60"]["mean"] == 4.0
        assert "allocate" in snap["latency_ms_by_op"]

    def test_slo_violation_bookkeeping(self):
        telemetry = self._loaded()
        watchdog = WatchdogSet(
            serving_monitors(target_p99_ms=50.0, horizon=10.0),
            policy="warn",
        )
        with pytest.warns(UserWarning):
            violations = watchdog.check_serving(telemetry)
        assert [v.metric for v in violations] == ["serving.latency_burn"]
        telemetry.record_violation(violations[0])
        snap = telemetry.snapshot()
        assert snap["slo"]["violations"] == {"slo.latency": 1}
        assert snap["slo"]["worst_headroom"]["serving.latency_burn"] < 0.0
        events = TraceBuffer.from_jsonl(
            telemetry.trace_tail()["jsonl"]
        ).events_named("slo.violation")
        assert len(events) == 1


class TestSloMonitors:
    def test_idle_daemon_never_pages(self):
        telemetry = ServingTelemetry(window=60.0, horizons=(60.0,))
        watchdog = WatchdogSet(
            serving_monitors(
                target_p99_ms=1.0, max_error_rate=0.001, horizon=60.0
            ),
            policy="raise",
        )
        assert watchdog.check_serving(telemetry) == []

    def test_queue_and_stall_monitors_read_gauges(self):
        telemetry = ServingTelemetry(window=60.0, horizons=(60.0,))
        telemetry.observe_queue_depth(500)
        telemetry.observe_loop_lag(0.8)
        watchdog = WatchdogSet(
            serving_monitors(
                max_queue_depth=100, max_loop_lag_seconds=0.5,
                horizon=60.0,
            ),
            policy="warn",
        )
        with pytest.warns(UserWarning):
            violations = watchdog.check_serving(telemetry)
        assert {v.monitor for v in violations} == {
            "slo.queue", "slo.stall"
        }

    def test_raise_policy_raises_at_the_check(self):
        telemetry = ServingTelemetry(window=60.0, horizons=(60.0,))
        telemetry.observe_request("allocate", 1.0)   # 1000 ms
        watchdog = WatchdogSet(
            serving_monitors(target_p99_ms=1.0, horizon=60.0),
            policy="raise",
        )
        with pytest.raises(ConstraintViolationError):
            watchdog.check_serving(telemetry)
        assert watchdog.violation_count == 1


class TestServerIntegration:
    def test_span_chain_and_telemetry_over_the_wire(self, tmp_path):
        optimizer = _optimizer()
        capacity = sum(optimizer.model.capacities)
        sock = tmp_path / "telemetry.sock"
        trace_path = tmp_path / "spans" / "serve.jsonl"
        trace_path.parent.mkdir()
        config = ServingConfig(
            socket_path=sock, batch_window=0.001,
            watchdog_interval=0.05, trace_path=trace_path,
            slo_p99_ms=60000.0, slo_horizon=10.0,
        )
        with background_server(optimizer, config):
            with ServingClient(socket_path=sock) as client:
                for fraction in (0.3, 0.4, 0.5):
                    client.allocate(load=fraction * capacity)

                payload = client.telemetry()
                assert payload["protocol"] == 2
                assert payload["uptime_seconds"] > 0.0
                assert payload["requests"]["10"]["total"] == 3.0
                assert payload["latency_ms"]["10"]["count"] == 3
                assert payload["slo"]["configured"] is True
                assert payload["slo"]["policy"] == "warn"
                assert payload["slo"]["failure"] is None

                scrape = client.telemetry(format="prometheus")
                assert scrape["content_type"].startswith("text/plain")
                counts = obs.validate_prometheus(scrape["text"])
                assert counts["families"] >= 10
                assert "repro_serving_requests_total" in scrape["text"]
                assert 'op="allocate"' in scrape["text"]

                tail = client.trace(limit=100)
                buffer = TraceBuffer.from_jsonl(tail["jsonl"])
                requests = buffer.spans_named("serving.request")
                assert len(requests) == 3
                batches = {
                    s.span_id: s
                    for s in buffer.spans_named("serving.batch")
                }
                for request in requests:
                    assert request.attributes["op"] == "allocate"
                    batch = batches[request.attributes["batch_span_id"]]
                    assert request.attributes["trace_id"] in (
                        batch.attributes["trace_ids"]
                    )
                    assert request.attributes["wait_seconds"] >= 0.0
                    assert request.attributes["compute_seconds"] >= 0.0
                queries = buffer.spans_named("serving.query_many")
                assert queries and all(
                    q.parent_id in batches for q in queries
                )

                stats = client.stats()
                assert len(stats["cache_key"]) == 64
                assert stats["slo"]["violations"] == {}
        # Drain flushed the closed spans to the rotating exporter.
        merged = read_rotated_trace(trace_path)
        assert len(merged.spans_named("serving.request")) >= 3

    def test_raise_policy_marks_failure_but_keeps_serving(self, tmp_path):
        optimizer = _optimizer()
        capacity = sum(optimizer.model.capacities)
        sock = tmp_path / "slo.sock"
        config = ServingConfig(
            socket_path=sock, batch_window=0.001,
            watchdog_interval=0.05,
            slo_p99_ms=1e-6, slo_horizon=10.0, slo_policy="raise",
        )
        with background_server(optimizer, config):
            with ServingClient(socket_path=sock) as client:
                client.allocate(load=0.4 * capacity)
                deadline = time.monotonic() + 5.0
                failure = None
                while time.monotonic() < deadline:
                    failure = client.stats()["slo"]["failure"]
                    if failure:
                        break
                    time.sleep(0.05)
                assert failure and "p99" in failure
                # The daemon fail-stops SLO checks, not the service.
                answer = client.allocate(load=0.3 * capacity)
                assert answer["machines_on"] >= 1
                assert client.stats()["slo"]["violations"] == {
                    "slo.latency": 1
                }

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(socket_path="s", telemetry_window=0.0)
        with pytest.raises(ConfigurationError):
            ServingConfig(socket_path="s", slo_horizon=400.0)
        with pytest.raises(ConfigurationError):
            ServingConfig(socket_path="s", slo_policy="page-me")
        with pytest.raises(ConfigurationError):
            ServingConfig(socket_path="s", trace_keep_files=0)


class TestRenderTop:
    def test_renders_windows_and_batch_histogram(self):
        telemetry = {
            "uptime_seconds": 12.5,
            "horizons": [10.0, 60.0],
            "requests": {"10": {"total": 5.0, "rate": 0.5},
                         "60": {"total": 5.0, "rate": 0.08}},
            "errors": {"10": {"total": 1.0, "rate": 0.1},
                       "60": {"total": 1.0, "rate": 0.02}},
            "latency_ms": {
                "10": {"count": 5, "rate": 0.5, "mean": 6.0, "min": 5.0,
                       "max": 9.0, "p50": 6.0, "p99": 9.0,
                       "sampled": True},
                "60": {"count": 5, "rate": 0.08, "mean": 6.0, "min": 5.0,
                       "max": 9.0, "p50": 6.0, "p99": 9.0,
                       "sampled": False},
            },
            "queue_depth": {"10": {"max": 3.0}, "60": {"max": 3.0}},
            "batch_size": {"10": {"mean": 2.5}, "60": {"mean": 2.5}},
            "slo": {"violations": {"slo.latency": 2},
                    "worst_headroom": {"serving.latency_burn": -0.2},
                    "failure": "p99 blew the budget"},
        }
        stats = {
            "requests": {"allocate": 5}, "errors": {"allocate": 1},
            "inflight": 0, "queue_depth": 0,
            "watchdog": {"stalls": 0}, "cache_key": "a" * 64,
            "batch_size_histogram": {"1": 2, "3": 1},
        }
        frame = render_top(telemetry, stats)
        assert "# repro top" in frame
        assert "uptime 12.5 s" in frame
        assert "10 s" in frame and "60 s" in frame
        assert "9.00~" in frame            # sampled quantiles are marked
        assert "Batch sizes (lifetime):" in frame
        assert "SLO FAILURE" in frame
        assert "slo.latency violations" in frame

    def test_renders_without_stats(self):
        frame = render_top({"horizons": [], "uptime_seconds": 0.0})
        assert "repro top" in frame


class TestBenchCheck:
    def _serving_doc(self, p99: float = 100.0, machines: int = 500):
        return {
            "schema": 1, "kind": "serving", "machines": machines,
            "entries": [{
                "clients": 1000, "batching": True,
                "latency_p50_ms": 50.0, "latency_p99_ms": p99,
                "requests_per_second": 2000.0,
            }],
        }

    def _valid_serving_doc(self, p99: float = 100.0):
        """A complete serving document: ``check_benchmarks`` validates
        every result against its artifact spec before comparing it."""
        entry = {
            "clients": 1000, "batching": True,
            "batch_window_seconds": 0.005, "max_batch": 512,
            "requests": 1000, "errors": 0, "duration_seconds": 0.5,
            "requests_per_second": 2000.0, "latency_mean_ms": 60.0,
            "latency_p50_ms": 50.0, "latency_p99_ms": p99, "batches": 2,
            "mean_batch_size": 500.0, "max_batch_size": 512,
            "coalesced": 900, "identical_answers": True,
            "batch_size_histogram": {"488": 1, "512": 1},
        }
        unbatched = dict(
            entry, batching=False, batches=1000, mean_batch_size=1.0,
            max_batch_size=1, coalesced=0,
            batch_size_histogram={"1": 1000},
        )
        return {
            "schema": 1, "kind": "serving", "seed": 2012,
            "machines": 500, "index_statuses": 806500, "levels": 48,
            "warm_start_seconds": 0.1, "entries": [entry, unbatched],
        }

    def test_identical_documents_pass(self):
        rows = compare_documents(
            "serving.json", self._serving_doc(), self._serving_doc()
        )
        assert [r.verdict for r in rows] == ["ok", "ok", "ok"]

    def test_regression_beyond_tolerance_fails(self):
        rows = compare_documents(
            "serving.json", self._serving_doc(),
            self._serving_doc(p99=1000.0),
        )
        verdicts = {r.metric: r.verdict for r in rows}
        assert verdicts["latency_p99_ms"] == "regression"
        assert verdicts["latency_p50_ms"] == "ok"
        report = CheckReport(rows=rows)
        assert report.regressed is True
        assert "FAIL" in render_report(report)

    def test_within_tolerance_noise_passes(self):
        rows = compare_documents(
            "serving.json", self._serving_doc(),
            self._serving_doc(p99=200.0),   # 2x < the 2.5x tolerance
        )
        assert all(r.verdict == "ok" for r in rows)

    def test_workload_mismatch_is_skipped_not_failed(self):
        rows = compare_documents(
            "serving.json", self._serving_doc(machines=500),
            self._serving_doc(p99=1e9, machines=20),   # CI smoke size
        )
        assert [r.verdict for r in rows] == ["skipped"]
        assert "machines" in rows[0].note

    def test_unknown_kind_and_new_entries_pass(self):
        rows = compare_documents("x.json", {"kind": "x"}, {"kind": "x"})
        assert rows[0].verdict == "skipped"
        current = self._serving_doc()
        current["entries"][0]["clients"] = 777
        rows = compare_documents(
            "serving.json", self._serving_doc(), current
        )
        assert [r.verdict for r in rows] == ["new"]
        assert not CheckReport(rows=rows).regressed

    def test_directory_gate_and_update(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        (results / "serving.json").write_text(
            json.dumps(self._valid_serving_doc())
        )
        report = check_benchmarks(results, baselines)
        assert [(r.metric, r.verdict) for r in report.rows] == [
            ("-", "new"), ("no_errors", "ok"),
        ]
        assert update_baselines(results, baselines) == ["serving.json"]
        report = check_benchmarks(results, baselines)
        assert report.regressed is False
        assert all(r.verdict == "ok" for r in report.rows)
        with pytest.raises(ConfigurationError):
            check_benchmarks(tmp_path / "missing", baselines)

    def test_committed_baselines_pass_the_gate(self):
        """Every committed baseline is a valid artifact, bears out its
        claims, and passes the gate against itself."""
        baselines = REPO / "benchmarks" / "baselines"
        for path in sorted(baselines.glob("*.json")):
            document = json.loads(path.read_text())
            spec = obs.artifact_spec(document, path.name)
            assert spec is not None, path.name
            obs.validate_artifact(spec.kind, document)
            failed = [
                claim.name
                for claim, held in obs.evaluate_claims(spec.kind, document)
                if not held
            ]
            assert not failed, (path.name, failed)
        report = check_benchmarks(baselines, baselines)
        assert report.regressed is False
        assert report.counts()["ok"] >= 12

    def test_invalid_result_or_failed_claim_fails_the_gate(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        broken = self._valid_serving_doc()
        broken["entries"][0]["latency_p99_ms"] = float("nan")
        (results / "serving.json").write_text(json.dumps(broken))
        report = check_benchmarks(results, tmp_path / "baselines")
        assert [(r.metric, r.verdict) for r in report.rows] == [
            ("schema", "regression"),
        ]
        erring = self._valid_serving_doc()
        erring["entries"][1]["errors"] = 3
        (results / "serving.json").write_text(json.dumps(erring))
        report = check_benchmarks(results, tmp_path / "baselines")
        assert report.regressed is True
        assert ("no_errors", "regression") in [
            (r.metric, r.verdict) for r in report.rows
        ]

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        results.mkdir()
        (results / "serving.json").write_text(
            json.dumps(self._valid_serving_doc(p99=1000.0))
        )
        baselines.mkdir()
        (baselines / "serving.json").write_text(
            json.dumps(self._valid_serving_doc())
        )
        code = main(["bench-check", "--results", str(results),
                     "--baselines", str(baselines)])
        assert code == 1
        assert "regression" in capsys.readouterr().out
        code = main(["bench-check", "--results", str(results),
                     "--baselines", str(baselines), "--update"])
        assert code == 0
        code = main(["bench-check", "--results", str(results),
                     "--baselines", str(baselines)])
        assert code == 0

    def test_row_ratio(self):
        row = CheckRow("a", "s", "m", "ok", baseline=2.0, current=5.0)
        assert row.ratio == 2.5
        assert CheckRow("a", "s", "m", "new").ratio is None


class TestCliSurface:
    def test_list_includes_new_targets(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "top" in out
        assert "bench-check" in out

    def test_top_requires_a_transport(self, capsys):
        from repro.cli import main

        assert main(["top"]) == 2
        assert "requires" in capsys.readouterr().err
