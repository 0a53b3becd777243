"""Tests for the runtime fault injector (repro.faults.injection)."""

import math

import numpy as np
import pytest

from repro.core.controller import RuntimeController
from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultScenario, FaultSpec
from repro.testbed.rack import TestbedConfig, build_testbed
from repro.thermal.simulation import RoomSimulation
from tests.conftest import make_system_model


def scenario(*faults, name="s", seed=11, duration=None):
    return FaultScenario(
        name=name, seed=seed, faults=tuple(faults), duration=duration
    )


class TestReplay:
    def test_transitions_fire_once_in_order(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="machine_crash", at=10.0, until=30.0, machine=0),
            FaultSpec(kind="load_surge", at=20.0, until=40.0, magnitude=1.5),
        ))
        assert [e.kind for e in inj.advance(15.0)] == ["machine_crash"]
        assert inj.advance(15.0) == []  # idempotent at the same clock
        fired = inj.advance(100.0)
        assert [(e.time, e.kind, e.phase) for e in fired] == [
            (20.0, "load_surge", "begin"),
            (30.0, "machine_crash", "end"),
            (40.0, "load_surge", "end"),
        ]
        assert inj.active_faults == []

    def test_next_transition_time_peeks_without_firing(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="load_surge", at=5.5, until=9.25, magnitude=2.0),
            FaultSpec(kind="machine_crash", at=7.0, machine=1),
        ))
        assert inj.next_transition_time() == 5.5
        assert inj.next_transition_time() == 5.5  # read-only
        assert inj.events == [] and inj.offered_load(10.0) == 10.0
        inj.advance(5.4)
        assert inj.next_transition_time() == 5.5
        inj.advance(5.5)
        assert inj.next_transition_time() == 7.0
        inj.advance(8.0)
        assert inj.next_transition_time() == 9.25
        inj.advance(100.0)
        assert inj.next_transition_time() is None

    def test_failed_machines_track_crash_windows(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="machine_crash", at=10.0, until=30.0, machine=2),
        ))
        assert inj.failed_machines == frozenset()
        inj.advance(10.0)
        assert inj.failed_machines == frozenset({2})
        inj.advance(30.0)
        assert inj.failed_machines == frozenset()

    def test_overlapping_crashes_need_both_repairs(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="machine_crash", at=0.0, until=100.0, machine=1),
            FaultSpec(kind="machine_crash", at=50.0, until=200.0, machine=1),
        ))
        inj.advance(120.0)  # first window ended, second still open
        assert inj.failed_machines == frozenset({1})
        inj.advance(200.0)
        assert inj.failed_machines == frozenset()

    def test_reset_replays_byte_identical_events(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="machine_crash", at=10.0, until=30.0, machine=0),
            FaultSpec(kind="ac_derate", at=15.0, until=25.0, magnitude=0.5),
        ))
        inj.advance(1e9)
        first = inj.events_jsonl()
        inj.reset()
        assert inj.events == []
        inj.advance(1e9)
        assert inj.events_jsonl() == first

    def test_two_injectors_same_scenario_identical_jsonl(self):
        spec = scenario(
            FaultSpec(kind="sensor_noise", at=0.0, machine=0, magnitude=0.5),
            FaultSpec(kind="machine_crash", at=5.0, until=9.0, machine=1),
        )
        a, b = FaultInjector(spec), FaultInjector(spec)
        a.advance(100.0)
        b.advance(100.0)
        assert a.events_jsonl() == b.events_jsonl()


class TestWorldState:
    def test_derate_factor_is_product_of_active(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="ac_derate", at=0.0, magnitude=0.5),
            FaultSpec(kind="ac_derate", at=0.0, magnitude=0.4),
        ))
        assert inj.derate_factor == 1.0
        inj.advance(0.0)
        assert inj.derate_factor == pytest.approx(0.2)

    def test_set_point_offset_is_sum(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="ac_setpoint_drift", at=0.0, magnitude=2.0),
            FaultSpec(kind="ac_setpoint_drift", at=0.0, magnitude=1.5),
        ))
        inj.advance(0.0)
        assert inj.set_point_offset == pytest.approx(3.5)

    def test_offered_load_applies_surges(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="load_surge", at=0.0, until=10.0, magnitude=1.25),
        ))
        assert inj.offered_load(100.0) == pytest.approx(100.0)
        inj.advance(0.0)
        assert inj.offered_load(100.0) == pytest.approx(125.0)
        inj.advance(10.0)
        assert inj.offered_load(100.0) == pytest.approx(100.0)

    def test_offered_loads_array_scales_like_floats(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="load_surge", at=0.0, magnitude=1.1),
            FaultSpec(kind="load_surge", at=0.0, magnitude=1.3),
        ))
        inj.advance(0.0)
        loads = np.array([0.1, 57.3, 123.456, 1e-9])
        scaled = inj.offered_load(loads)
        assert scaled.tolist() == [inj.offered_load(x) for x in loads.tolist()]
        assert loads.tolist() == [0.1, 57.3, 123.456, 1e-9]  # untouched


class TestSensorPath:
    def readings(self):
        return np.array([300.0, 310.0, 320.0, 330.0])

    def test_dropout_yields_nan(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="sensor_dropout", at=0.0, machine=1),
        ))
        out = inj.filter_readings(0.0, self.readings())
        assert math.isnan(out[1])
        assert out[0] == 300.0

    def test_stuck_holds_last_prefault_reading(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="sensor_stuck", at=10.0, machine=0),
        ))
        inj.filter_readings(0.0, self.readings())  # records raw 300.0
        hot = self.readings() + 20.0
        out = inj.filter_readings(10.0, hot)
        assert out[0] == 300.0  # frozen at the pre-fault value
        assert out[1] == hot[1]
        # Stays frozen while the window is open.
        out2 = inj.filter_readings(11.0, hot + 5.0)
        assert out2[0] == 300.0

    def test_stuck_explicit_value(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="sensor_stuck", at=0.0, machine=2, value=250.0),
        ))
        out = inj.filter_readings(0.0, self.readings())
        assert out[2] == 250.0

    def test_bias_adds(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="sensor_bias", at=0.0, machine=3, magnitude=-6.0),
        ))
        out = inj.filter_readings(0.0, self.readings())
        assert out[3] == pytest.approx(324.0)

    def test_noise_replays_bit_identically(self):
        spec = scenario(
            FaultSpec(kind="sensor_noise", at=0.0, machine=0, magnitude=1.0),
        )
        a, b = FaultInjector(spec), FaultInjector(spec)
        outs_a = [a.filter_readings(t, self.readings()) for t in range(5)]
        outs_b = [b.filter_readings(t, self.readings()) for t in range(5)]
        for x, y in zip(outs_a, outs_b):
            np.testing.assert_array_equal(x, y)
        # The noise actually perturbs the target machine.
        assert outs_a[0][0] != 300.0
        assert outs_a[0][1] == 310.0

    def test_input_array_untouched(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="sensor_bias", at=0.0, machine=0, magnitude=5.0),
        ))
        raw = self.readings()
        inj.filter_readings(0.0, raw)
        np.testing.assert_array_equal(raw, self.readings())

    def test_no_active_faults_passthrough(self):
        inj = FaultInjector(scenario(
            FaultSpec(kind="sensor_bias", at=50.0, machine=0, magnitude=5.0),
        ))
        out = inj.filter_readings(0.0, self.readings())
        np.testing.assert_array_equal(out, self.readings())


class TestCoolerPath:
    def build(self, *faults):
        testbed = build_testbed(TestbedConfig(n_machines=4), seed=3)
        from dataclasses import replace

        cooler = replace(testbed.cooler, _integral=0.0, _q_cool=0.0)
        sim = RoomSimulation(testbed.room, cooler)
        inj = FaultInjector(scenario(*faults))
        inj.attach_simulation(sim)
        return sim, inj

    def test_derate_scales_q_max(self):
        sim, inj = self.build(
            FaultSpec(kind="ac_derate", at=10.0, until=20.0, magnitude=0.25),
        )
        nominal = sim.cooler.q_max
        inj.advance(10.0)
        assert sim.cooler.q_max == pytest.approx(0.25 * nominal)
        inj.advance(20.0)
        assert sim.cooler.q_max == pytest.approx(nominal)

    def test_drift_offsets_commanded_set_point(self):
        sim, inj = self.build(
            FaultSpec(kind="ac_setpoint_drift", at=10.0, until=20.0,
                      magnitude=3.0),
        )
        sim.set_set_point(290.0)  # routed through the injector
        assert sim.cooler.set_point == pytest.approx(290.0)
        inj.advance(10.0)
        assert sim.cooler.set_point == pytest.approx(293.0)
        sim.set_set_point(288.0)  # re-command while drifted
        assert sim.cooler.set_point == pytest.approx(291.0)
        inj.advance(20.0)
        assert sim.cooler.set_point == pytest.approx(288.0)

    def test_stepping_advances_replay(self):
        sim, inj = self.build(
            FaultSpec(kind="ac_derate", at=0.5, magnitude=0.5),
        )
        nominal = inj._nominal_q_max
        # The stepper hook advances to the step's *start* time, so the
        # fault lands on the first step starting at or after onset.
        sim.step(1.0)
        assert sim.cooler.q_max == pytest.approx(nominal)
        sim.step(1.0)
        assert sim.cooler.q_max == pytest.approx(0.5 * nominal)

    def test_detach_restores_nominal_state(self):
        sim, inj = self.build(
            FaultSpec(kind="ac_derate", at=0.0, magnitude=0.5),
        )
        inj.advance(0.0)
        nominal = inj._nominal_q_max
        inj.detach()
        assert sim.cooler.q_max == pytest.approx(nominal)

    def test_command_set_point_needs_cooler(self):
        inj = FaultInjector(scenario())
        with pytest.raises(ConfigurationError):
            inj.command_set_point(290.0)


class TestDisabledBitIdentity:
    """Acceptance: with faults disabled, behavior is bit-identical."""

    def _simulate(self, with_empty_injector: bool):
        testbed = build_testbed(TestbedConfig(n_machines=4), seed=3)
        from dataclasses import replace

        cooler = replace(testbed.cooler, _integral=0.0, _q_cool=0.0)
        sim = RoomSimulation(testbed.room, cooler)
        if with_empty_injector:
            FaultInjector(scenario(name="empty")).attach_simulation(sim)
        powers = np.array([120.0, 140.0, 0.0, 160.0])
        mask = np.array([True, True, False, True])
        sim.set_node_powers(powers, on_mask=mask)
        sim.set_set_point(sim.cooler.set_point)
        trajectory = []
        for _ in range(50):
            sim.step(2.0)
            trajectory.append(sim.t_cpu.copy())
        return np.array(trajectory), sim.cooler.q_max, sim.cooler.set_point

    def test_simulation_identical_with_empty_scenario(self):
        base_traj, base_q, base_sp = self._simulate(False)
        inj_traj, inj_q, inj_sp = self._simulate(True)
        np.testing.assert_array_equal(base_traj, inj_traj)
        assert base_q == inj_q
        assert base_sp == inj_sp

    def test_controller_identical_with_empty_scenario(self):
        model = make_system_model(n=6)
        plain = RuntimeController(JointOptimizer(model), min_dwell=0.0)
        wired = RuntimeController(JointOptimizer(model), min_dwell=0.0)
        wired.attach_fault_injector(FaultInjector(scenario(name="empty")))
        loads = [60.0, 80.0, 120.0, 90.0, 40.0, 100.0]
        for step, load in enumerate(loads):
            a = plain.observe(step * 60.0, load)
            b = wired.observe(step * 60.0, load)
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a.loads, b.loads)
                assert a.on_ids == b.on_ids
                assert a.t_sp == b.t_sp
        assert plain.reconfigurations == wired.reconfigurations
        assert plain.suppressed == wired.suppressed
