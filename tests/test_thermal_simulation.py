"""Tests for the coupled room simulation and its steady-state solver."""

import numpy as np
import pytest

from repro import units
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    SimulationError,
)
from repro.testbed.rack import TestbedConfig, build_cooler, build_room
from repro.thermal.simulation import RoomSimulation, check_node_powers
from tests.oracles import LoopRoomSimulation


def make_sim(n=5, seed=1, **config_overrides) -> RoomSimulation:
    config = TestbedConfig(n_machines=n, **config_overrides)
    rng = np.random.default_rng(seed)
    return RoomSimulation(build_room(config, rng), build_cooler(config))


class TestInputs:
    def test_rejects_wrong_power_shape(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError):
            sim.set_node_powers([50.0, 50.0])

    def test_rejects_negative_power(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError):
            sim.set_node_powers([-1.0] + [50.0] * 4)

    def test_rejects_power_on_off_machine(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError):
            sim.set_node_powers(
                [50.0] * 5, on_mask=[False] + [True] * 4
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_power_naming_the_node(self, bad):
        sim = make_sim()
        with pytest.raises(ConfigurationError, match="node 2 power must be"):
            sim.set_node_powers([50.0, 50.0, bad, 50.0, 50.0])
        assert not np.any(np.isnan(sim.powers))  # nothing was taken

    @pytest.mark.parametrize(
        "row, mask",
        [
            ([50.0, 50.0, np.nan, 50.0, 50.0], None),
            ([50.0, np.inf, 50.0, 50.0, 50.0], None),
            ([50.0, 50.0, 50.0, -2.0, 50.0], None),
            ([50.0, 50.0, 50.0, 50.0, 50.0], [True] * 4 + [False]),
            ([0.0, 50.0, 50.0, 50.0, 50.0], [False] + [True] * 4),
        ],
    )
    def test_block_check_raises_as_set_node_powers(self, row, mask):
        sim = make_sim()
        block = np.full((4, 5), 40.0)
        if mask is not None:
            block[:, ~np.array(mask)] = 0.0
        block[2] = row
        try:
            sim.set_node_powers(row, on_mask=mask)
        except ConfigurationError as exc:
            expected = str(exc)
        else:
            expected = None
        if expected is None:
            check_node_powers(block, mask, 5, steps=4)
            return
        with pytest.raises(ConfigurationError) as caught:
            check_node_powers(block, mask, 5, steps=4)
        assert str(caught.value) == expected
        with pytest.raises(ConfigurationError, match="expected 3x5 powers"):
            check_node_powers(block, mask, 5, steps=3)

    def test_rejects_invalid_set_point(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError):
            sim.set_set_point(50.0)


class TestSteadyStateSolver:
    @pytest.mark.parametrize(
        "powers, message",
        [
            ([-500.0] + [50.0] * 4, "non-negative, got -500.0 at node 0"),
            ([50.0, 50.0, np.nan, 50.0, 50.0], "node 2 power must be finite"),
            ([50.0, np.inf, 50.0, 50.0, 50.0], "node 1 power must be finite"),
            ([50.0] * 4, "expected 5 powers"),
        ],
    )
    def test_rejects_bad_powers_naming_the_node(self, powers, message):
        # A negative power used to come back as a CPU at 70.96 K, and a
        # NaN as a misleading "cooler saturated" ConvergenceError.
        sim = make_sim()
        with pytest.raises(ConfigurationError, match=message):
            sim.steady_state(powers, [True] * 5, 295.0)

    def test_batch_rejects_bad_powers_naming_row_and_node(self):
        sim = make_sim()
        powers = np.full((3, 5), 50.0)
        for bad, word in ((np.nan, "nan"), (-1.0, "-1.0"), (np.inf, "inf")):
            block = powers.copy()
            block[1, 3] = bad
            with pytest.raises(
                ConfigurationError, match=f"row 1: node 3 .*got {word}"
            ):
                sim.steady_state_many(block)

    def test_regulated_room_sits_at_set_point(self):
        sim = make_sim()
        state = sim.steady_state(
            powers=[80.0] * 5, on_mask=[True] * 5, set_point=297.15
        )
        assert state.regulated
        assert state.t_room == pytest.approx(297.15)

    def test_energy_balance(self):
        # q_cool == sum(P) + U (T_env - T_room): every watt must go
        # somewhere.
        sim = make_sim()
        state = sim.steady_state(
            powers=[80.0] * 5, on_mask=[True] * 5, set_point=297.15
        )
        expected = 400.0 + sim.room.envelope_conductance * (
            sim.room.t_env - 297.15
        )
        assert state.q_cool == pytest.approx(expected)

    def test_supply_colder_than_room(self):
        sim = make_sim()
        state = sim.steady_state(
            powers=[80.0] * 5, on_mask=[True] * 5, set_point=297.15
        )
        assert state.t_ac < state.t_room

    def test_cpu_hotter_with_more_power(self):
        sim = make_sim()
        low = sim.steady_state([45.0] * 5, [True] * 5, 297.15)
        high = sim.steady_state([95.0] * 5, [True] * 5, 297.15)
        assert np.all(high.t_cpu > low.t_cpu)

    def test_off_machines_sit_at_room_temperature(self):
        sim = make_sim()
        mask = [True, True, True, False, False]
        state = sim.steady_state([80.0, 80.0, 80.0, 0.0, 0.0], mask, 297.15)
        assert state.t_cpu[3] == pytest.approx(state.t_room)
        assert state.t_cpu[4] == pytest.approx(state.t_room)

    def test_total_power_sums_components(self):
        sim = make_sim()
        state = sim.steady_state([80.0] * 5, [True] * 5, 297.15)
        assert state.total_power == pytest.approx(
            state.total_server_power + state.p_ac
        )

    def test_saturation_reported_when_set_point_unreachable(self):
        # A set point colder than the coil can deliver leaves the room
        # unregulated but still in a consistent steady state.
        sim = make_sim()
        state = sim.steady_state(
            powers=[95.0] * 5, on_mask=[True] * 5, set_point=284.0
        )
        assert not state.regulated
        assert state.t_room > 284.0
        assert state.t_ac >= sim.cooler.t_ac_min - 1e-9

    def test_overload_without_envelope_raises(self):
        sim = make_sim(cooler_q_max=100.0, envelope_conductance=0.0)
        with pytest.raises(ConvergenceError):
            sim.steady_state([95.0] * 5, [True] * 5, 290.0)

    def test_raising_set_point_cuts_cooling_power(self):
        # The physical trade-off the optimization exploits.
        sim = make_sim()
        cold = sim.steady_state([80.0] * 5, [True] * 5, 294.15)
        warm = sim.steady_state([80.0] * 5, [True] * 5, 300.15)
        assert warm.p_ac < cold.p_ac


class TestTransientIntegration:
    def test_converges_to_algebraic_steady_state(self):
        sim = make_sim()
        sim.set_node_powers([85.0] * 5)
        sim.set_set_point(296.15)
        sim.run_until_steady(max_duration=20000.0)
        state = sim.steady_state()
        assert sim.t_room == pytest.approx(state.t_room, abs=0.05)
        assert np.allclose(sim.t_cpu, state.t_cpu, atol=0.1)
        assert sim.t_ac == pytest.approx(state.t_ac, abs=0.05)

    def test_transient_with_off_machines(self):
        sim = make_sim()
        mask = np.array([True, True, False, False, False])
        powers = np.where(mask, 90.0, 0.0)
        sim.set_node_powers(powers, on_mask=mask)
        sim.set_set_point(297.15)
        sim.run_until_steady(max_duration=30000.0)
        state = sim.steady_state()
        assert np.allclose(sim.t_cpu, state.t_cpu, atol=0.15)

    def test_settling_time_scale_matches_paper(self):
        # The paper reports stable CPU temperatures in ~200 s; after a
        # load step the simulated CPU should cover most of its rise on
        # that time scale.
        sim = make_sim()
        sim.set_node_powers([38.0] * 5)
        sim.set_set_point(297.15)
        sim.run_until_steady(max_duration=20000.0)
        start = sim.t_cpu[2]
        powers = [38.0] * 5
        powers[2] = 95.0
        sim.set_node_powers(powers)
        sim.run(300.0)
        partial = sim.t_cpu[2] - start
        sim.run_until_steady(max_duration=20000.0)
        full = sim.t_cpu[2] - start
        assert partial > 0.6 * full

    def test_time_advances(self):
        sim = make_sim()
        sim.set_node_powers([50.0] * 5)
        sim.run(10.0, dt=0.5)
        assert sim.time == pytest.approx(10.0)

    def test_rejects_non_positive_dt(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError):
            sim.step(dt=0.0)

    def test_mismatched_flow_rejected(self):
        config = TestbedConfig(n_machines=3)
        rng = np.random.default_rng(0)
        room = build_room(config, rng)
        cooler = build_cooler(TestbedConfig(n_machines=3, cooler_flow=2.0))
        with pytest.raises(ConfigurationError):
            RoomSimulation(room, cooler)

    def test_run_integrates_exactly_the_requested_duration(self):
        # Regression: run(1.0, dt=0.3) used to round to three steps and
        # silently integrate only 0.9 s.  The remainder sub-step makes
        # time advance by exactly the requested duration.
        sim = make_sim()
        sim.set_node_powers([50.0] * 5)
        sim.run(1.0, dt=0.3)
        assert sim.time == 1.0
        # A reference run stepped manually (3 x 0.3 s + 0.1 s) lands in
        # the identical state.
        ref = make_sim()
        ref.set_node_powers([50.0] * 5)
        for _ in range(3):
            ref.step(0.3)
        ref.step(1.0 - 3 * 0.3)  # the exact remainder run() takes
        assert sim.t_room == ref.t_room
        assert np.array_equal(sim.t_cpu, ref.t_cpu)

    def test_run_exact_multiple_takes_no_remainder_substep(self):
        sim = make_sim()
        sim.set_node_powers([50.0] * 5)
        sim.run(10.0, dt=0.5)
        assert sim.time == 10.0

    def test_run_rejects_negative_duration(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError):
            sim.run(-1.0)

    @pytest.mark.parametrize(
        "sim_class", [RoomSimulation, LoopRoomSimulation],
        ids=["numpy", "python"],
    )
    def test_nan_in_box_temperature_trips_divergence_guard(self, sim_class):
        # Regression: the divergence check used to validate t_cpu and
        # t_room but not t_box, so a NaN in the box temperatures passed
        # the guard and poisoned every later step.
        config = TestbedConfig(n_machines=5)
        rng = np.random.default_rng(1)
        sim = sim_class(build_room(config, rng), build_cooler(config))
        sim.set_node_powers([50.0] * 5)
        sim.step(0.5)
        sim.t_box[2] = float("nan")
        with np.errstate(invalid="ignore"):
            with pytest.raises(SimulationError, match="diverged"):
                sim.step(0.5)

    @pytest.mark.parametrize(
        "sim_class", [RoomSimulation, LoopRoomSimulation],
        ids=["numpy", "python"],
    )
    def test_nan_in_cpu_temperature_trips_divergence_guard(self, sim_class):
        config = TestbedConfig(n_machines=5)
        rng = np.random.default_rng(1)
        sim = sim_class(build_room(config, rng), build_cooler(config))
        sim.set_node_powers([50.0] * 5)
        sim.step(0.5)
        sim.t_cpu[0] = float("inf")
        with np.errstate(invalid="ignore"):
            with pytest.raises(SimulationError, match="diverged"):
                sim.step(0.5)
