"""Tests for the fault campaign harness and resilience artifact."""

import json
from types import SimpleNamespace

import pytest

from repro.control.campaign import DemandScenario, run_demand_loop
from repro.core.controller import RuntimeController
from repro.errors import ConfigurationError
from repro.experiments.common import default_context
from repro.faults import (
    FaultInjector,
    FaultScenario,
    FaultSpec,
    events_to_jsonl,
    reference_scenarios,
    run_campaign,
    run_closed_loop,
)
from repro.faults.campaign import CONTROLLERS, ReferenceScenario
from repro.obs import validate_artifact, write_artifact
from repro.workload.traces import constant_trace


@pytest.fixture(scope="module")
def faults_context():
    return default_context(seed=2012, n_machines=6)


@pytest.fixture(scope="module")
def quick_campaign(faults_context):
    return run_campaign(
        seed=2012, n_machines=6, quick=True, context=faults_context
    )


class TestReferenceScenarios:
    def test_full_and_quick_sets(self):
        full = reference_scenarios(seed=2012)
        quick = reference_scenarios(seed=2012, quick=True)
        assert [r.scenario.name for r in full] == [
            "crash-derate", "sensor-storm", "surge-drift"
        ]
        assert [r.scenario.name for r in quick] == [
            "crash-derate-quick", "sensor-storm-quick"
        ]
        for ref in full + quick:
            assert ref.scenario.duration is not None
            assert 0.0 < ref.load_fraction <= 1.0

    def test_load_fraction_validated(self):
        scenario = FaultScenario(name="s", seed=1, faults=(), duration=60.0)
        with pytest.raises(ConfigurationError):
            ReferenceScenario(scenario=scenario, load_fraction=0.0)


def _run_closed_loop(context, duration, **kwargs):
    scenario = FaultScenario(
        name="s", seed=1, faults=(), duration=duration
    )
    return run_closed_loop(
        context.testbed, RuntimeController(context.optimizer), scenario,
        50.0, **kwargs,
    )


def _run_demand_loop(context, duration, **kwargs):
    trace = (
        constant_trace(50.0, duration=duration)
        if duration is not None
        # A trace cannot be built without a duration; stand one in.
        else SimpleNamespace(duration=None, load_at=lambda t: 50.0)
    )
    scenario = DemandScenario(
        name="s",
        trace=trace,
        faults=FaultScenario(name="s-faults", seed=1, faults=()),
    )
    return run_demand_loop(
        context.testbed, RuntimeController(context.optimizer), scenario,
        **kwargs,
    )


@pytest.mark.parametrize(
    "run_loop",
    [_run_closed_loop, _run_demand_loop],
    ids=["run_closed_loop", "run_demand_loop"],
)
class TestClosedLoopValidation:
    def test_rejects_bad_timesteps(self, faults_context, run_loop):
        for control_dt, sim_dt in ((10.0, 20.0), (60.0, 0.0), (0.0, 2.0)):
            with pytest.raises(ConfigurationError):
                run_loop(
                    faults_context, 120.0,
                    control_dt=control_dt, sim_dt=sim_dt,
                )

    def test_rejects_sim_dt_that_does_not_divide_control_dt(
        self, faults_context, run_loop
    ):
        """At 60/7 each interval would simulate 63 s, not 60."""
        with pytest.raises(ConfigurationError, match="divide"):
            run_loop(faults_context, 120.0, control_dt=60.0, sim_dt=7.0)

    def test_needs_duration(self, faults_context, run_loop):
        with pytest.raises(ConfigurationError):
            run_loop(faults_context, None)


def test_closed_loop_rejects_negative_grace(faults_context):
    with pytest.raises(ConfigurationError):
        _run_closed_loop(faults_context, 120.0, grace_steps=-1)


class TestCampaignDocument:
    def test_schema_validates(self, quick_campaign):
        _, document = quick_campaign
        validate_artifact("resilience", document)  # raises on any violation

    def test_all_controllers_scored(self, quick_campaign):
        results, document = quick_campaign
        assert len(results) == 2
        for result in results:
            assert set(result.runs) == set(CONTROLLERS)
        for scenario in document["scenarios"]:
            rows = scenario["controllers"]
            assert set(rows) == set(CONTROLLERS)
            assert rows["oracle"]["energy_overhead_vs_oracle"] == 0.0

    def test_resilience_demo_in_crash_derate(self, quick_campaign):
        """The acceptance demo: naive violates, resilient and oracle
        hold T_cpu <= T_max after the detection window."""
        results, _ = quick_campaign
        crash = next(r for r in results if r.name == "crash-derate-quick")
        naive = crash.runs["naive"]
        resilient = crash.runs["resilient"]
        oracle = crash.runs["oracle"]
        assert naive.violation_seconds_after_grace > 0.0
        assert resilient.violation_seconds_after_grace == 0.0
        assert oracle.violation_seconds_after_grace == 0.0
        assert resilient.safe_mode_entries >= 1
        # The oracle is the energy floor the others are scored against.
        assert oracle.energy_joules <= naive.energy_joules
        assert oracle.energy_joules <= resilient.energy_joules

    def test_sensor_storm_quarantines_faulted_sensors(self, quick_campaign):
        results, _ = quick_campaign
        storm = next(r for r in results if r.name == "sensor-storm-quick")
        resilient = storm.runs["resilient"]
        assert resilient.sensors_quarantined >= 1
        assert resilient.violation_seconds == 0.0

    def test_write_round_trip(self, quick_campaign, tmp_path):
        _, document = quick_campaign
        out = tmp_path / "resilience.json"
        write_artifact(out, document)
        assert json.loads(out.read_text()) == document

    def test_validate_rejects_broken_documents(self, quick_campaign):
        _, document = quick_campaign
        bad = json.loads(json.dumps(document))
        bad["kind"] = "benchmarks"
        with pytest.raises(ConfigurationError):
            validate_artifact("resilience", bad)
        bad = json.loads(json.dumps(document))
        del bad["scenarios"][0]["controllers"]["oracle"]
        with pytest.raises(ConfigurationError):
            validate_artifact("resilience", bad)
        bad = json.loads(json.dumps(document))
        bad["scenarios"][0]["controllers"]["naive"]["violation_seconds"] = -1
        with pytest.raises(ConfigurationError):
            validate_artifact("resilience", bad)


class TestDeterminism:
    def test_same_seed_same_document_and_jsonl(
        self, quick_campaign, faults_context
    ):
        """Acceptance: same spec + seed => byte-identical fault event
        JSONL and an identical campaign document across two runs."""
        results_a, doc_a = quick_campaign
        results_b, doc_b = run_campaign(
            seed=2012, n_machines=6, quick=True, context=faults_context
        )
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )
        for ra, rb in zip(results_a, results_b):
            for name in CONTROLLERS:
                assert events_to_jsonl(
                    ra.runs[name].fault_events
                ) == events_to_jsonl(rb.runs[name].fault_events)

    def test_campaign_immune_to_interleaved_cooler_state(
        self, quick_campaign, faults_context
    ):
        """Regression: campaigns used to step the testbed's shared
        cooler, so anything run in between (a workload replay, a manual
        PI step) leaked integral state into the next campaign and broke
        same-seed replay.  Scenario runners now simulate against
        ``Testbed.fresh_cooler()``, so deliberately dirtying the shared
        unit must not change a rerun by a single byte."""
        results_a, doc_a = quick_campaign
        cooler = faults_context.testbed.cooler
        # Wind up the shared PI loop well away from its reset state.
        for _ in range(50):
            cooler.step(cooler.set_point + 5.0, dt=30.0)
        try:
            results_b, doc_b = run_campaign(
                seed=2012, n_machines=6, quick=True, context=faults_context
            )
        finally:
            cooler.reset()
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(
            doc_b, sort_keys=True
        )
        for ra, rb in zip(results_a, results_b):
            for name in CONTROLLERS:
                assert events_to_jsonl(
                    ra.runs[name].fault_events
                ) == events_to_jsonl(rb.runs[name].fault_events)

    def test_all_controllers_replay_the_same_schedule(self, quick_campaign):
        results, _ = quick_campaign
        for result in results:
            jsonls = {
                events_to_jsonl(result.runs[name].fault_events)
                for name in CONTROLLERS
            }
            assert len(jsonls) == 1  # the world is controller-independent


class TestNaiveHarness:
    def test_crashed_machine_is_dark_in_ground_truth(self, faults_context):
        """Even when the naive plan keeps using a crashed machine, the
        simulation draws no power from it and its load is lost."""
        from repro.core.controller import RuntimeController

        scenario = FaultScenario(
            name="one-crash", seed=5, duration=600.0,
            faults=(FaultSpec(kind="machine_crash", at=120.0, machine=0),),
        )
        injector = FaultInjector(scenario)
        controller = RuntimeController(faults_context.optimizer)
        result = run_closed_loop(
            faults_context.testbed, controller, scenario, 100.0,
            injector=injector, controller_name="naive",
        )
        assert result.served_task_seconds < result.offered_task_seconds
        assert result.shed_task_seconds > 0.0
        assert 0 in injector.failed_machines
