"""Kernel equivalence: the vectorized RK4 stepper vs the Python loop.

The contract: :class:`RoomSimulation`'s vectorized stepper produces
**bit-identical** trajectories to the per-node loop oracle
(:class:`tests.oracles.LoopRoomSimulation`) on every seeded scenario —
off nodes, saturated cooler modes, set-point steps, and all three
fault-injector seams.  Every comparison here is exact (``==`` /
``array_equal``), never ``allclose``.
"""

import dataclasses

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultScenario, FaultSpec
from repro.testbed.experiment import Testbed
from repro.testbed.rack import (
    TestbedConfig,
    build_cooler,
    build_power_models,
    build_room,
    build_testbed,
)
from repro.thermal.simulation import RoomSimulation
from tests.oracles import LoopRoomSimulation


def engine_pair(config=None, seed=7):
    """Two simulations over the *same* room: shipped and loop oracle.

    The room is immutable so it can be shared; each simulation gets its
    own cooling unit (the PI loop is stateful).
    """
    config = config or TestbedConfig(n_machines=8)
    room = build_room(config, np.random.default_rng(seed))
    fast = RoomSimulation(room, build_cooler(config))
    loop = LoopRoomSimulation(room, build_cooler(config))
    return fast, loop


def random_inputs(n, seed):
    rng = np.random.default_rng(seed)
    powers = rng.uniform(40.0, 220.0, n)
    on_mask = rng.random(n) < 0.7
    if not on_mask.any():
        on_mask[0] = True
    if on_mask.all():
        on_mask[-1] = False
    powers[~on_mask] = 0.0
    return powers, on_mask


def assert_states_identical(fast, loop):
    assert np.array_equal(fast.t_cpu, loop.t_cpu)
    assert np.array_equal(fast.t_box, loop.t_box)
    assert fast.t_room == loop.t_room
    assert fast.t_ac == loop.t_ac
    assert fast.time == loop.time
    assert fast.cooler.q_cool == loop.cooler.q_cool


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_mixed_masks(self, seed):
        fast, loop = engine_pair(seed=100 + seed)
        powers, on_mask = random_inputs(fast.room.node_count, seed)
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=on_mask)
        for step in range(120):
            fast.step(0.5)
            loop.step(0.5)
            if step % 30 == 0:
                assert_states_identical(fast, loop)
        assert_states_identical(fast, loop)

    def test_saturated_cooler_mode(self):
        # A tiny capacity forces q_max saturation from the first steps.
        config = TestbedConfig(n_machines=8, cooler_q_max=1500.0)
        fast, loop = engine_pair(config)
        rng = np.random.default_rng(3)
        powers = rng.uniform(180.0, 250.0, 8)  # ~1.7 kW, all machines on
        for sim in (fast, loop):
            sim.set_node_powers(powers)
            sim.set_set_point(units.celsius_to_kelvin(18.0))
        for _ in range(400):
            fast.step(0.5)
            loop.step(0.5)
        assert fast.cooler.q_cool == fast.cooler.q_max  # really saturated
        assert_states_identical(fast, loop)

    def test_coil_limited_mode(self):
        # A set point near t_ac_min pins the coil limit, not q_max.
        fast, loop = engine_pair()
        powers, on_mask = random_inputs(8, 4)
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=on_mask)
            sim.set_set_point(units.celsius_to_kelvin(12.0))
        for _ in range(200):
            fast.step(0.5)
            loop.step(0.5)
        assert_states_identical(fast, loop)

    def test_set_point_step_and_mask_change(self):
        fast, loop = engine_pair()
        p1, m1 = random_inputs(8, 5)
        p2, m2 = random_inputs(8, 6)
        for sim in (fast, loop):
            sim.set_node_powers(p1, on_mask=m1)
        for _ in range(60):
            fast.step(0.5)
            loop.step(0.5)
        for sim in (fast, loop):
            sim.set_set_point(units.celsius_to_kelvin(20.0))
            sim.set_node_powers(p2, on_mask=m2)
        for _ in range(60):
            fast.step(0.5)
            loop.step(0.5)
        assert_states_identical(fast, loop)

    def test_run_with_remainder_substep(self):
        fast, loop = engine_pair()
        powers, on_mask = random_inputs(8, 8)
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=on_mask)
            sim.run(100.3, dt=0.5)
        assert_states_identical(fast, loop)

    def test_run_until_steady_settles_identically(self):
        fast, loop = engine_pair()
        powers, on_mask = random_inputs(8, 9)
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=on_mask)
            sim.run_until_steady()
        assert_states_identical(fast, loop)

    def test_derivatives_dispatch_identical(self):
        fast, loop = engine_pair()
        powers, on_mask = random_inputs(8, 10)
        rng = np.random.default_rng(11)
        t_cpu = rng.uniform(290.0, 340.0, 8)
        t_box = rng.uniform(290.0, 320.0, 8)
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=on_mask)
        d_fast = fast._derivatives(t_cpu, t_box, 300.0, 288.0)
        d_loop = loop._derivatives(t_cpu, t_box, 300.0, 288.0)
        assert np.array_equal(d_fast[0], d_loop[0])
        assert np.array_equal(d_fast[1], d_loop[1])
        assert d_fast[2] == d_loop[2]

    @pytest.mark.parametrize(
        "sim_class", [RoomSimulation, LoopRoomSimulation],
        ids=["numpy", "python"],
    )
    def test_settling_reuses_final_stage_derivatives(self, sim_class):
        # Regression: run_until_steady used to re-evaluate _derivatives
        # after every step just to measure settle rates.  The stepper's
        # fourth-stage (k4) derivatives are that signal; no extra
        # evaluation may happen during settling.
        config = TestbedConfig(n_machines=8)
        room = build_room(config, np.random.default_rng(7))
        sim = sim_class(room, build_cooler(config))
        powers, on_mask = random_inputs(8, 16)
        sim.set_node_powers(powers, on_mask=on_mask)
        calls = []
        original = sim._derivatives
        sim._derivatives = lambda *a, **k: (
            calls.append(1) or original(*a, **k)
        )
        sim.run_until_steady(max_duration=5000.0)
        assert calls == []

    def test_settle_rates_before_any_step_is_an_error(self):
        fast, _ = engine_pair()
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="no step"):
            fast.settle_rates()

    def test_settle_rates_identical_each_step(self):
        fast, loop = engine_pair()
        powers, on_mask = random_inputs(8, 12)
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=on_mask)
        for _ in range(20):
            fast.step(0.5)
            loop.step(0.5)
            assert fast.settle_rates() == loop.settle_rates()


def seam_scenario():
    """One scenario exercising the cooler-manipulating fault kinds plus
    every sensor corruption (the three injector seams)."""
    return FaultScenario(
        name="seams",
        seed=21,
        faults=(
            FaultSpec(kind="ac_derate", at=10.0, until=60.0, magnitude=0.5),
            FaultSpec(
                kind="ac_setpoint_drift", at=20.0, until=80.0, magnitude=2.0
            ),
            FaultSpec(kind="sensor_bias", at=5.0, machine=0, magnitude=3.0),
            FaultSpec(kind="sensor_noise", at=5.0, machine=1, magnitude=0.8),
            FaultSpec(kind="sensor_stuck", at=15.0, machine=2),
            FaultSpec(kind="sensor_dropout", at=15.0, until=50.0, machine=3),
        ),
    )


class TestFaultInjectorSeams:
    def test_simulation_seam_trajectories_identical(self):
        # Seam 1: the stepper hook.  ac_derate halves q_max mid-run and
        # ac_setpoint_drift shifts the actuator set point; the stepper
        # and the oracle must integrate through the disturbance identically.
        fast, loop = engine_pair()
        powers, on_mask = random_inputs(8, 13)
        injectors = []
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=on_mask)
            inj = FaultInjector(seam_scenario())
            inj.attach_simulation(sim)
            injectors.append(inj)
        for _ in range(240):
            fast.step(0.5)
            loop.step(0.5)
            assert fast.cooler.q_max == loop.cooler.q_max
            assert fast.cooler.set_point == loop.cooler.set_point
        assert_states_identical(fast, loop)
        assert injectors[0].events_jsonl() == injectors[1].events_jsonl()

    def test_sensor_seam_corruption_identical(self):
        # Seam 2: the sensor path.  Identical trajectories feed
        # filter_readings; the seeded corruption (noise included) must
        # come out byte-identical.
        fast, loop = engine_pair()
        powers, on_mask = random_inputs(8, 14)
        injectors = []
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=on_mask)
            inj = FaultInjector(seam_scenario())
            inj.attach_simulation(sim)
            injectors.append(inj)
        for _ in range(80):
            fast.step(0.5)
            loop.step(0.5)
            r_fast = injectors[0].filter_readings(fast.time, fast.t_cpu)
            r_loop = injectors[1].filter_readings(loop.time, loop.t_cpu)
            assert np.array_equal(r_fast, r_loop, equal_nan=True)

    def test_set_point_command_seam_identical(self):
        # Seam 3: the command path.  With drift active, set_set_point
        # routes through the injector; the effective actuator value and
        # the subsequent trajectory must match the oracle's.
        fast, loop = engine_pair()
        powers, on_mask = random_inputs(8, 15)
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=on_mask)
            FaultInjector(seam_scenario()).attach_simulation(sim)
        for _ in range(60):
            fast.step(0.5)
            loop.step(0.5)
        for sim in (fast, loop):
            sim.set_set_point(units.celsius_to_kelvin(22.0))
        assert fast.cooler.set_point == loop.cooler.set_point
        # Drift is active at t=30: the actuator saw command + 2 K.
        assert fast.cooler.set_point == units.celsius_to_kelvin(22.0) + 2.0
        for _ in range(60):
            fast.step(0.5)
            loop.step(0.5)
        assert_states_identical(fast, loop)


class TestSteadyStateMany:
    def test_batch_matches_scalar_solver_exactly(self):
        fast, _ = engine_pair()
        n = fast.room.node_count
        rng = np.random.default_rng(31)
        batch_size = 24
        powers = rng.uniform(30.0, 240.0, (batch_size, n))
        masks = rng.random((batch_size, n)) < 0.75
        masks[:, 0] = True  # at least one machine on per row
        powers[~masks] = 0.0
        set_points = rng.uniform(
            units.celsius_to_kelvin(16.0), units.celsius_to_kelvin(30.0),
            batch_size,
        )
        batch = fast.steady_state_many(powers, masks, set_points)
        assert len(batch) == batch_size
        for r in range(batch_size):
            one = fast.steady_state(powers[r], masks[r], set_points[r])
            got = batch.point(r)
            assert got.t_room == one.t_room
            assert got.t_ac == one.t_ac
            assert got.q_cool == one.q_cool
            assert got.p_ac == one.p_ac
            assert got.regulated == one.regulated
            assert np.array_equal(got.t_cpu, one.t_cpu)
            assert np.array_equal(got.t_box, one.t_box)
            assert np.array_equal(got.t_in, one.t_in)
            assert np.array_equal(got.server_power, one.server_power)

    def test_saturated_rows_match_scalar(self):
        config = TestbedConfig(n_machines=8, cooler_q_max=1500.0)
        fast, _ = engine_pair(config)
        rng = np.random.default_rng(32)
        powers = rng.uniform(150.0, 250.0, (6, 8))
        masks = np.ones((6, 8), dtype=bool)
        batch = fast.steady_state_many(powers, masks)
        assert not batch.regulated.any()
        for r in range(6):
            one = fast.steady_state(powers[r], masks[r])
            got = batch.point(r)
            assert got.t_room == one.t_room
            assert got.q_cool == one.q_cool
            assert got.p_ac == one.p_ac

    def test_floating_branch_matches_scalar(self):
        # All machines off and a set point above the building's free
        # equilibrium: the cooler never engages and the room floats.
        fast, _ = engine_pair()
        n = fast.room.node_count
        powers = np.zeros((2, n))
        masks = np.zeros((2, n), dtype=bool)
        sp = fast.room.t_env + 5.0
        batch = fast.steady_state_many(powers, masks, [sp, sp])
        one = fast.steady_state(powers[0], masks[0], sp)
        assert not one.regulated
        assert one.q_cool == 0.0
        got = batch.point(0)
        assert got.t_room == one.t_room
        assert got.q_cool == one.q_cool
        assert got.p_ac == one.p_ac
        assert np.array_equal(got.t_cpu, one.t_cpu)

    def test_scalar_set_point_broadcasts(self):
        fast, _ = engine_pair()
        n = fast.room.node_count
        rng = np.random.default_rng(33)
        powers = rng.uniform(50.0, 150.0, (3, n))
        masks = np.ones((3, n), dtype=bool)
        sp = units.celsius_to_kelvin(24.0)
        batch = fast.steady_state_many(powers, masks, sp)
        for r in range(3):
            assert batch.point(r).t_room == fast.steady_state(
                powers[r], masks[r], sp
            ).t_room

    def test_batch_validation_errors(self):
        fast, _ = engine_pair()
        n = fast.room.node_count
        with pytest.raises(ConfigurationError):
            fast.steady_state_many(np.zeros((2, n + 1)))
        with pytest.raises(ConfigurationError):
            fast.steady_state_many(np.zeros((0, n)))
        powers = np.full((1, n), 100.0)
        masks = np.zeros((1, n), dtype=bool)
        with pytest.raises(ConfigurationError):
            fast.steady_state_many(powers, masks)  # off machines drawing

    def test_batch_properties(self):
        fast, _ = engine_pair()
        n = fast.room.node_count
        rng = np.random.default_rng(34)
        powers = rng.uniform(50.0, 150.0, (4, n))
        batch = fast.steady_state_many(powers)
        assert np.array_equal(
            batch.total_server_power, batch.server_power.sum(axis=1)
        )
        assert np.array_equal(
            batch.total_power, batch.total_server_power + batch.p_ac
        )
        assert np.array_equal(
            batch.max_cpu_temperature, batch.t_cpu.max(axis=1)
        )


class TestEngineSelection:
    def test_run_workload_keeps_custom_simulation_class(self):
        # run_workload rebuilds the simulation around a fresh cooler; a
        # custom class supplied to the Testbed must survive the rebuild.
        from repro.core.policies import PolicyDecision

        class CountingLoop(LoopRoomSimulation):
            advances = 0

            def _advance(self, dt, t_ac):
                type(self).advances += 1
                super()._advance(dt, t_ac)

        config = TestbedConfig(n_machines=4)
        default = build_testbed(config, seed=5)
        rng = np.random.default_rng(5)
        room = build_room(config, rng)
        custom = Testbed(
            config=config,
            room=room,
            cooler=build_cooler(config),
            power_models=build_power_models(config),
            rng=rng,
            simulation=CountingLoop(room, build_cooler(config)),
        )
        sp = units.celsius_to_kelvin(24.0)
        decision = PolicyDecision(
            scenario="custom-sim",
            on_ids=(0, 1, 2),
            loads=np.array([20.0, 20.0, 20.0, 0.0]),
            t_sp=sp,
            t_ac_target=sp - 5.0,
        )
        kwargs = dict(duration=60.0, warmup=20.0, deterministic_arrivals=True)
        expected = default.run_workload(decision, **kwargs)
        got = custom.run_workload(decision, **kwargs)
        assert CountingLoop.advances == 60
        for field in dataclasses.fields(expected):
            a = getattr(got, field.name)
            b = getattr(expected, field.name)
            assert np.array_equal(a, b), field.name

    def test_evaluate_many_matches_evaluate(self):
        from repro.core.policies import PolicyDecision

        bed = build_testbed(TestbedConfig(n_machines=4))
        decisions = []
        for k, sp_c in ((4, 22.0), (3, 24.0), (2, 26.0)):
            on_ids = tuple(range(k))
            loads = np.array(
                [20.0 if i in on_ids else 0.0 for i in range(4)]
            )
            sp = units.celsius_to_kelvin(sp_c)
            decisions.append(
                PolicyDecision(
                    scenario=f"d{k}",
                    on_ids=on_ids,
                    loads=loads,
                    t_sp=sp,
                    t_ac_target=sp - 5.0,
                )
            )
        assert bed.evaluate_many(decisions) == [
            bed.evaluate(d) for d in decisions
        ]
        assert bed.evaluate_many([]) == []
