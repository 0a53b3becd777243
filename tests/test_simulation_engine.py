"""Kernel equivalence: the vectorized kernels vs the Python loops.

The contract: :class:`RoomSimulation`'s vectorized stepper produces
**bit-identical** trajectories to the per-node loop oracle
(:class:`tests.oracles.LoopRoomSimulation`) on every seeded scenario —
off nodes, saturated cooler modes, set-point steps, and all three
fault-injector seams — and its batched steady-state solver, through
both entry points, solves every operating point as the oracle's scalar
solver does.  Every comparison here is exact (``==`` /
``array_equal`` / raw bytes), never ``allclose``.
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


class TestStackedColumns:
    """``_advance`` on ``(n, K)`` blocks steps each column exactly as
    that state stepped alone (the plant extraction relies on it)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_columns_match_solo_steps(self, seed):
        fast, _ = engine_pair(seed=300 + seed)
        n = fast.room.node_count
        rng = np.random.default_rng(seed)
        _, on_mask = random_inputs(n, seed)
        width = 5
        t_cpu = 315.0 + 10.0 * rng.random((n, width))
        t_box = 305.0 + 10.0 * rng.random((n, width))
        t_room = 295.0 + 10.0 * rng.random(width)
        powers = np.where(
            on_mask[:, None], rng.uniform(40.0, 220.0, (n, width)), 0.0
        )
        t_ac = 285.0 + 10.0 * rng.random(width)
        solo = []
        for k in range(width):
            fast.on_mask = on_mask
            fast.t_cpu, fast.t_box = t_cpu[:, k].copy(), t_box[:, k].copy()
            fast.t_room, fast.powers = float(t_room[k]), powers[:, k].copy()
            for _ in range(4):
                fast._advance(0.5, float(t_ac[k]))
            solo.append((fast.t_cpu, fast.t_box, fast.t_room))
        fast.t_cpu, fast.t_box = t_cpu.copy(), t_box.copy()
        fast.t_room, fast.powers = t_room.copy(), powers
        for _ in range(4):
            fast._advance(0.5, t_ac)
        for k, (cpu, box, room) in enumerate(solo):
            assert np.array_equal(fast.t_cpu[:, k], cpu)
            assert np.array_equal(fast.t_box[:, k], box)
            assert fast.t_room[k] == room


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


def assert_steady_identical(got, want):
    """Every field of two steady states equal bit for bit."""
    for field in dataclasses.fields(want):
        a = getattr(got, field.name)
        b = getattr(want, field.name)
        if field.name == "regulated":
            assert a is b
            continue
        a = np.asarray(a, dtype=float)
        assert a.shape == np.shape(b), field.name
        assert a.tobytes() == np.asarray(b, dtype=float).tobytes(), field.name


def assert_rows_match_reference(fast, loop, powers, masks, set_points):
    """Both shipped entry points, row by row, against the scalar
    per-node reference; returns the batch."""
    batch = fast.steady_state_many(powers, masks, set_points)
    assert len(batch) == len(powers)
    for r in range(len(powers)):
        sp = np.broadcast_to(set_points, len(powers))[r]
        want = loop.steady_state(powers[r], masks[r], sp)
        one = fast.steady_state(powers[r], masks[r], sp)
        assert_steady_identical(one, want)
        assert_steady_identical(batch.point(r), want)
    return batch


def same_error(fast_call, loop_call):
    """Both calls raise the same error type with the same message."""
    with pytest.raises(Exception) as want:
        loop_call()
    with pytest.raises(type(want.value)) as got:
        fast_call()
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


class TestSteadyStateMany:
    """The batched solver is the only steady-state engine:
    :meth:`RoomSimulation.steady_state` is its one-row case, and both
    are pinned to the scalar per-node solver of
    :class:`tests.oracles.LoopRoomSimulation` field for field."""

    def test_batch_matches_scalar_solver_exactly(self):
        fast, loop = engine_pair()
        n = fast.room.node_count
        rng = np.random.default_rng(31)
        batch_size = 24
        powers = rng.uniform(30.0, 240.0, (batch_size, n))
        masks = rng.random((batch_size, n)) < rng.uniform(
            0.1, 1.0, (batch_size, 1)
        )
        masks[:, 0] = True  # at least one machine on per row
        masks[1] = True  # and one row with every machine on
        powers[~masks] = 0.0
        set_points = rng.uniform(
            units.celsius_to_kelvin(16.0), units.celsius_to_kelvin(30.0),
            batch_size,
        )
        batch = assert_rows_match_reference(
            fast, loop, powers, masks, set_points
        )
        assert batch.regulated.all()

    def test_saturated_rows_match_scalar(self):
        # Heavy rows hold the cooler at q_max; light rows with a set
        # point just above t_ac_min are coil-limited instead.
        config = TestbedConfig(n_machines=8, cooler_q_max=1500.0)
        fast, loop = engine_pair(config)
        rng = np.random.default_rng(32)
        powers = np.vstack([
            rng.uniform(150.0, 250.0, (6, 8)),
            rng.uniform(5.0, 15.0, (4, 8)),
        ])
        masks = np.ones((10, 8), dtype=bool)
        masks[6:, ::3] = False
        powers[~masks] = 0.0
        t_ac_min = fast.cooler.t_ac_min
        set_points = np.concatenate([
            rng.uniform(
                units.celsius_to_kelvin(16.0),
                units.celsius_to_kelvin(30.0), 6,
            ),
            t_ac_min + rng.uniform(0.1, 0.6, 4),
        ])
        batch = assert_rows_match_reference(
            fast, loop, powers, masks, set_points
        )
        assert not batch.regulated.any()
        assert (batch.q_cool[:6] == 1500.0).all()
        assert (batch.q_cool[6:] < 1500.0).all()

    def test_floating_branch_matches_scalar(self):
        # A set point above the building's free equilibrium: the cooler
        # never engages and the room floats, with every machine off or
        # with a light load still under the envelope's loss.
        fast, loop = engine_pair()
        n = fast.room.node_count
        powers = np.zeros((4, n))
        masks = np.zeros((4, n), dtype=bool)
        masks[3, :2] = True
        powers[3, :2] = 50.0
        t_env = fast.room.t_env
        set_points = t_env + np.array([0.5, 5.0, 20.0, 20.0])
        batch = assert_rows_match_reference(
            fast, loop, powers, masks, set_points
        )
        assert not batch.regulated.any()
        assert (batch.q_cool == 0.0).all()

    def test_many_random_rows_match_scalar(self):
        # Enough rows in every mode that a last-ulp change anywhere in
        # the arithmetic shows (a non-power-of-two efficiency and flow
        # keep the divisions inexact).
        config = TestbedConfig(
            n_machines=12, cooler_q_max=2500.0, cooler_efficiency=0.31,
            cooler_flow=0.9,
        )
        fast, loop = engine_pair(config, seed=41)
        rng = np.random.default_rng(41)
        rows = 1500
        powers = rng.uniform(0.0, 300.0, (rows, 12))
        masks = rng.random((rows, 12)) < rng.uniform(0.0, 1.0, (rows, 1))
        powers[~masks] = 0.0
        powers[::7][~masks[::7]] = -0.0  # off machines at negative zero
        # A third each just above t_ac_min (where the coil limit
        # binds), at office temperatures, and above t_env.
        t_ac_min, t_env = fast.cooler.t_ac_min, fast.room.t_env
        set_points = np.choose(np.arange(rows) % 3, [
            rng.uniform(t_ac_min + 0.1, t_ac_min + 2.0, rows),
            rng.uniform(t_ac_min + 2.0, t_env, rows),
            rng.uniform(t_env, t_env + 15.0, rows),
        ])
        batch = assert_rows_match_reference(
            fast, loop, powers, masks, set_points
        )
        floating = ~batch.regulated & (batch.q_cool == 0.0)
        capacity = ~batch.regulated & (batch.q_cool == 2500.0)
        coil = ~batch.regulated & ~floating & ~capacity
        modes = (batch.regulated, floating, capacity, coil)
        assert min(int(mode.sum()) for mode in modes) > 100

    def test_boundaries_pick_the_reference_mode(self):
        # Rows on the mode boundaries, where only the comparison
        # operators and the tie rule decide.
        config = TestbedConfig(n_machines=8, cooler_q_max=1500.0)
        fast, loop = engine_pair(config)
        cooler, room = fast.cooler, fast.room
        u = room.envelope_conductance
        f_c = cooler.supply_flow * units.C_AIR
        on = np.ones(8, dtype=bool)
        # The load needs exactly q_max at the set point: regulated.
        rows = [(np.full(8, 187.5), on, room.t_env)]
        # Both saturated modes consistent: the supply air at q_max sits
        # within the 1e-9 K tolerance below t_ac_min (the coil-limited
        # mode needs less and wins), or a hair above it (the coil mode
        # would need q_max plus less than 1e-9 W: a tie, capacity wins).
        for delta in (-5e-10, 5e-12):
            total = cooler.q_max + u * (
                cooler.t_ac_min + delta + cooler.q_max / f_c - room.t_env
            )
            rows.append((np.full(8, total / 8), on, 283.5))
        batch = assert_rows_match_reference(
            fast, loop, *(np.array(column) for column in zip(*rows))
        )
        assert batch.regulated.tolist() == [True, False, False]
        assert batch.q_cool[0] == 1500.0
        assert batch.q_cool[1] < 1500.0
        assert batch.q_cool[2] == 1500.0
        t_ac_a = batch.t_room[1] - cooler.q_max / f_c
        assert -1e-9 <= t_ac_a - cooler.t_ac_min < 0.0

    def test_coil_mode_clamps_to_q_max(self):
        # No envelope: only the coil-limited mode exists, and a load a
        # hair above q_max is served at q_max exactly.
        config = TestbedConfig(
            n_machines=8, cooler_q_max=100.0, envelope_conductance=0.0
        )
        fast, loop = engine_pair(config)
        powers = np.full((1, 8), 12.5)
        powers[0, 0] += 5e-10
        batch = assert_rows_match_reference(
            fast, loop, powers, np.ones((1, 8), dtype=bool), 283.2
        )
        assert not batch.regulated[0]
        assert batch.q_cool[0] == 100.0

    def test_scalar_set_point_broadcasts(self):
        fast, loop = engine_pair()
        n = fast.room.node_count
        rng = np.random.default_rng(33)
        powers = rng.uniform(50.0, 150.0, (3, n))
        masks = np.ones((3, n), dtype=bool)
        sp = units.celsius_to_kelvin(24.0)
        assert_rows_match_reference(fast, loop, powers, masks, sp)

    def test_defaults_are_the_current_inputs(self):
        fast, loop = engine_pair()
        powers, mask = random_inputs(fast.room.node_count, seed=35)
        for sim in (fast, loop):
            sim.set_node_powers(powers, on_mask=mask)
            sim.set_set_point(units.celsius_to_kelvin(25.0))
        assert_steady_identical(fast.steady_state(), loop.steady_state())
        batch = fast.steady_state_many(powers[None])
        assert batch.regulated[0]
        assert batch.t_room[0] == units.celsius_to_kelvin(25.0)

    def test_one_row_result_owns_its_arrays(self):
        fast, _ = engine_pair()
        powers, mask = random_inputs(fast.room.node_count, seed=36)
        fast.set_node_powers(powers, on_mask=mask)
        state = fast.steady_state()
        assert not np.shares_memory(state.server_power, fast.powers)
        before = fast.steady_state()
        state.t_cpu[:] = 0.0
        state.server_power[:] = 0.0
        assert_steady_identical(fast.steady_state(), before)

    @pytest.mark.parametrize(
        "powers, mask, set_point",
        [
            ([np.nan] + [50.0] * 7, None, 295.0),
            ([50.0] * 7 + [-1.0], None, 295.0),
            ([50.0] * 7 + [np.inf], None, 295.0),
            ([50.0] * 7, None, 295.0),
            ([50.0] * 8, [True] * 7 + [False], 295.0),
            ([50.0] * 8, [True] * 7, 295.0),
            ([50.0] * 8, None, np.nan),
            ([50.0] * 8, None, np.inf),
            ([50.0] * 8, None, 1e6),
            ([50.0] * 8, None, -5.0),
            ([50.0] * 8, None, 149.9),
        ],
    )
    def test_scalar_errors_match_reference(self, powers, mask, set_point):
        fast, loop = engine_pair()
        if mask is None:
            mask = [True] * 8
        same_error(
            lambda: fast.steady_state(powers, mask, set_point),
            lambda: loop.steady_state(powers, mask, set_point),
        )

    def test_unserviceable_load_errors_match_reference(self):
        # No envelope and a load above q_max: no consistent mode.
        config = TestbedConfig(
            n_machines=8, cooler_q_max=100.0, envelope_conductance=0.0
        )
        fast, loop = engine_pair(config)
        powers = np.full(8, 95.0)
        mask = np.ones(8, dtype=bool)
        same_error(
            lambda: fast.steady_state(powers, mask, 290.0),
            lambda: loop.steady_state(powers, mask, 290.0),
        )
        same_error(
            lambda: fast.steady_state_many(powers[None], mask[None], 290.0),
            lambda: loop.steady_state(powers, mask, 290.0),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e6, -5.0, 149.9])
    def test_rejects_invalid_set_points(self, bad):
        # A NaN set point used to fail as a "cooler saturated"
        # ConvergenceError and an absurd one was solved.
        fast, _ = engine_pair()
        n = fast.room.node_count
        powers = np.full((3, n), 80.0)
        with pytest.raises(
            ConfigurationError, match=r"^set point out of range: "
        ):
            fast.steady_state(powers[0], None, bad)
        with pytest.raises(
            ConfigurationError,
            match=r"^row 2: set point out of range: ",
        ):
            fast.steady_state_many(powers, None, [295.0, 296.0, bad])
        with pytest.raises(
            ConfigurationError, match=r"^row 0: set point out of range: "
        ):
            fast.steady_state_many(powers, None, bad)

    def test_rejects_set_points_of_the_wrong_shape(self):
        fast, _ = engine_pair()
        n = fast.room.node_count
        powers = np.full((3, n), 80.0)
        wrong = ([295.0, 296.0], [295.0] * 4, [[295.0] * 3], [295.0])
        for set_points in wrong:
            with pytest.raises(
                ConfigurationError, match=r"expected a scalar or 3 set points"
            ):
                fast.steady_state_many(powers, None, set_points)

    def test_batch_validation_errors(self):
        fast, _ = engine_pair()
        n = fast.room.node_count
        with pytest.raises(ConfigurationError, match=r"\(B, 8\) powers"):
            fast.steady_state_many(np.zeros((2, n + 1)))
        with pytest.raises(ConfigurationError, match="at least 1 row"):
            fast.steady_state_many(np.zeros((0, n)))
        powers = np.full((1, n), 100.0)
        with pytest.raises(ConfigurationError, match="on_masks shape"):
            fast.steady_state_many(powers, np.ones((1, n - 1), dtype=bool))
        masks = np.zeros((1, n), dtype=bool)
        with pytest.raises(
            ConfigurationError,
            match=r"^row 0: a powered-off machine cannot draw positive "
            r"power \(node 0\)$",
        ):
            fast.steady_state_many(powers, masks)
        masks = np.ones((3, n), dtype=bool)
        masks[2, 5] = masks[2, 7] = masks[1, 3] = False
        powers = np.full((3, n), 100.0)
        powers[1, 3] = 0.0
        with pytest.raises(
            ConfigurationError,
            match=r"^row 2: a powered-off machine cannot draw positive "
            r"power \(node 5\)$",
        ):
            fast.steady_state_many(powers, masks)

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
