"""Tests for hierarchical tracing (repro.obs.trace)."""

import json

import pytest

from repro import obs
from repro.core.controller import RuntimeController
from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError
from repro.obs.trace import TraceBuffer, TraceEvent, TraceSpan
from repro.testbed.synthetic import make_system_model
from repro.workload.traces import constant_trace


@pytest.fixture
def tracing():
    """Enable tracing into a fresh buffer; restore afterwards."""
    buffer = obs.enable_tracing(TraceBuffer())
    yield buffer
    obs.disable_tracing()
    obs.enable_tracing(TraceBuffer())
    obs.disable_tracing()


class TestBuffer:
    def test_span_nesting_and_ids(self, tracing):
        with obs.trace.span("outer", kind="demo"):
            with obs.trace.span("inner"):
                pass
            with obs.trace.span("inner"):
                pass
        outer = tracing.spans_named("outer")[0]
        inners = tracing.spans_named("inner")
        assert outer.parent_id is None
        assert outer.attributes == {"kind": "demo"}
        assert [s.parent_id for s in inners] == [outer.span_id] * 2
        assert tracing.children(outer.span_id) == inners
        assert all(s.duration is not None and s.duration >= 0.0
                   for s in tracing.spans)

    def test_events_attach_to_innermost_span(self, tracing):
        with obs.trace.span("outer"):
            with obs.trace.span("inner"):
                obs.add_event("milestone", round=1)
        event = tracing.events_named("milestone")[0]
        assert event.span_id == tracing.spans_named("inner")[0].span_id
        assert event.attributes == {"round": 1}

    def test_set_span_attributes(self, tracing):
        with obs.trace.span("stage"):
            obs.set_span_attributes(machines_on=7, t_ac=290.5)
        span = tracing.spans_named("stage")[0]
        assert span.attributes == {"machines_on": 7, "t_ac": 290.5}

    def test_span_cap_counts_drops_and_keeps_nesting(self):
        buffer = obs.enable_tracing(TraceBuffer(max_spans=1, max_events=1))
        try:
            with obs.trace.span("kept"):
                with obs.trace.span("dropped"):
                    obs.add_event("kept_event")
                    obs.add_event("dropped_event")
        finally:
            obs.disable_tracing()
        assert [s.name for s in buffer.spans] == ["kept"]
        assert buffer.spans[0].end is not None  # nesting stayed balanced
        assert buffer.dropped_spans == 1
        assert buffer.dropped_events == 1
        assert buffer.summary()["dropped_spans"] == 1

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            TraceBuffer(max_spans=0)

    def test_span_skipped_while_suspended_leaves_the_outer_open(
        self, tracing
    ):
        # A span that never opened must not close its enclosing span.
        with obs.trace.span("outer"):
            with obs.suspended_tracing():
                with obs.trace.span("hot"):
                    pass
            assert obs.trace.current_span_id() == (
                tracing.spans_named("outer")[0].span_id
            )
            with obs.trace.span("after"):
                pass
        outer = tracing.spans_named("outer")[0]
        assert [s.name for s in tracing.spans] == ["outer", "after"]
        assert outer.end is not None
        assert tracing.spans_named("after")[0].parent_id == outer.span_id
        assert obs.trace.current_span_id() is None


class TestSinkSpans:
    def test_record_whatever_the_switch_and_skip_the_buffer(self, tracing):
        sunk = []
        with obs.trace.span("outer"):
            with obs.trace.span("daemon", sink=sunk.append, op="x"):
                with obs.trace.span("inner"):
                    pass
        obs.disable_tracing()
        with obs.trace.span("untraced", sink=sunk.append):
            pass
        assert [s.name for s in sunk] == ["daemon", "untraced"]
        assert all(s.end is not None for s in sunk)
        assert [s.name for s in tracing.spans] == ["outer", "inner"]
        outer, inner = tracing.spans
        daemon, untraced = sunk
        assert daemon.parent_id == outer.span_id
        assert inner.parent_id == daemon.span_id
        assert untraced.parent_id is None
        assert len({outer.span_id, inner.span_id, daemon.span_id,
                    untraced.span_id}) == 4


class TestDisabledMode:
    def test_everything_is_a_no_op(self):
        assert not obs.tracing_enabled()
        buffer = obs.get_trace_buffer()
        before = len(buffer)
        with obs.trace.span("nope"):
            obs.add_event("nope")
            obs.set_span_attributes(x=1)
        assert len(buffer) == before

    def test_timed_and_solve_record_no_spans(self):
        buffer = obs.get_trace_buffer()
        before = len(buffer)
        with obs.timed("quiet"):
            pass
        model = make_system_model(n=6)
        JointOptimizer(model).solve(0.4 * sum(model.capacities))
        assert len(buffer) == before


class TestRoundTrips:
    def _populated(self):
        buffer = TraceBuffer()
        root = buffer.start_span("root", attributes={"n": 3})
        child = buffer.start_span(
            "child", parent_id=root.span_id, start=root.start + 0.5
        )
        child.end = child.start + 0.25
        root.end = root.start + 1.0
        open_span = buffer.start_span("open", parent_id=root.span_id)
        assert open_span.end is None
        buffer.add_event(
            "constraint.violation",
            span_id=child.span_id,
            attributes={"metric": "thermal.headroom_k", "headroom": -0.5},
        )
        buffer.dropped_events = 2
        return buffer

    def _assert_equal(self, a: TraceBuffer, b: TraceBuffer):
        assert [s.to_dict() for s in a.spans] == [s.to_dict() for s in b.spans]
        assert [e.to_dict() for e in a.events] == [
            e.to_dict() for e in b.events
        ]
        assert a.dropped_spans == b.dropped_spans
        assert a.dropped_events == b.dropped_events

    def test_jsonl_round_trip_is_exact(self):
        buffer = self._populated()
        rebuilt = TraceBuffer.from_jsonl(buffer.to_jsonl())
        self._assert_equal(buffer, rebuilt)
        assert rebuilt.summary() == buffer.summary()

    def test_chrome_round_trip_is_exact(self):
        buffer = self._populated()
        document = json.loads(json.dumps(buffer.to_chrome_trace()))
        rebuilt = TraceBuffer.from_chrome_trace(document)
        self._assert_equal(buffer, rebuilt)

    def test_chrome_format_is_viewer_compatible(self):
        document = self._populated().to_chrome_trace()
        phases = {entry["ph"] for entry in document["traceEvents"]}
        assert phases == {"X", "i"}
        for entry in document["traceEvents"]:
            assert entry["ts"] >= 0.0
            if entry["ph"] == "X":
                assert entry["dur"] >= 0.0

    def test_jsonl_then_chrome_then_jsonl(self):
        buffer = self._populated()
        once = TraceBuffer.from_jsonl(buffer.to_jsonl())
        twice = TraceBuffer.from_chrome_trace(once.to_chrome_trace())
        self._assert_equal(buffer, twice)

    def test_jsonl_rejects_foreign_files(self):
        with pytest.raises(ConfigurationError):
            TraceBuffer.from_jsonl("")
        with pytest.raises(ConfigurationError):
            TraceBuffer.from_jsonl('{"kind": "something.else"}\n')
        with pytest.raises(ConfigurationError):
            TraceBuffer.from_jsonl('{"kind": "repro.trace", "schema": 99}\n')

    def test_chrome_rejects_foreign_documents(self):
        with pytest.raises(ConfigurationError):
            TraceBuffer.from_chrome_trace({"traceEvents": []})

    def test_record_dataclass_round_trips(self):
        span = TraceSpan(span_id=4, parent_id=None, name="s", start=1.0,
                         end=2.5, attributes={"k": "v"})
        assert TraceSpan.from_dict(span.to_dict()) == span
        event = TraceEvent(name="e", time=1.5, span_id=4,
                           attributes={"n": 1})
        assert TraceEvent.from_dict(event.to_dict()) == event


class TestRuntimeIntegration:
    def test_timed_opens_spans_without_metrics(self, tracing):
        assert not obs.enabled()
        with obs.timed("selection"):
            with obs.timed("consolidation/preprocess"):
                pass
        outer = tracing.spans_named("selection")[0]
        inner = tracing.spans_named("consolidation/preprocess")[0]
        assert inner.parent_id == outer.span_id

    def test_solve_yields_annotated_timeline(self, tracing):
        model = make_system_model(n=10)
        optimizer = JointOptimizer(model)
        result = optimizer.solve(0.5 * sum(model.capacities))
        root = tracing.spans_named("optimizer.solve")[0]
        assert root.attributes["machines_on"] == len(result.on_ids)
        assert root.attributes["method"] == "index"
        assert root.attributes["t_ac"] == result.t_ac
        child_names = {s.name for s in tracing.children(root.span_id)}
        assert {"selection", "closed_form", "actuation"} <= child_names
        rounds = tracing.events_named("closed_form.active_set_round")
        assert rounds
        assert all(r.attributes["active"] >= 1 for r in rounds)

    def test_controller_run_is_one_timeline(self, tracing):
        model = make_system_model(n=8)
        controller = RuntimeController(JointOptimizer(model), min_dwell=0.0)
        trace = constant_trace(0.4 * sum(model.capacities), duration=600.0)
        controller.run_trace(trace, dt=300.0)
        root = tracing.spans_named("controller.trace")[0]
        replans = tracing.spans_named("controller/replan")
        assert len(replans) == controller.reconfigurations == 1
        assert replans[0].parent_id == root.span_id
        assert replans[0].attributes["reason"] == "initial plan"
        assert replans[0].attributes["offered_load"] == pytest.approx(
            0.4 * sum(model.capacities)
        )

    def test_simulation_steps_become_events(self, tracing, system_model):
        from repro.testbed.rack import build_testbed
        from repro.testbed.experiment import Testbed  # noqa: F401

        testbed = build_testbed(seed=7)
        simulation = testbed.simulation
        for _ in range(3):
            simulation.step()
        events = tracing.events_named("simulation.step")
        assert len(events) == 3
        assert events[0].attributes.keys() >= {
            "sim_time", "t_room", "t_ac", "hottest_cpu"
        }
