"""Tests for the stratified (zonal) room substrate."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.testbed.rack import TestbedConfig
from repro.testbed.zonal_build import ZonalConfig, build_zonal_testbed
from repro.thermal.node import ComputeNodeThermal
from repro.thermal.zonal import ZonalRoom, ZonalRoomSimulation


def make_room(n_nodes=6, n_zones=3, mixing=0.3):
    nodes = tuple(
        ComputeNodeThermal(
            nu_cpu=600.0, nu_box=150.0, theta=2.26, flow=0.03,
            supply_fraction=0.5,
        )
        for _ in range(n_nodes)
    )
    zone_of = tuple(i * n_zones // n_nodes for i in range(n_nodes))
    return ZonalRoom(
        nodes=nodes,
        zone_of=zone_of,
        n_zones=n_zones,
        zone_heat_capacity=20000.0,
        mixing_flow=mixing,
        envelope_conductance=65.0,
        t_env=305.15,
        supply_flow=1.0,
    )


def make_sim(**kwargs) -> ZonalRoomSimulation:
    from repro.thermal.cooling import CoolingUnit

    room = make_room(**kwargs)
    cooler = CoolingUnit(
        supply_flow=1.0,
        efficiency=0.25,
        q_max=12000.0,
        t_ac_min=283.15,
        set_point=297.15,
        fan_power=3000.0,
    )
    return ZonalRoomSimulation(room, cooler)


class TestZonalRoom:
    def test_zone_membership(self):
        room = make_room(n_nodes=6, n_zones=3)
        assert room.zone_members(0) == [0, 1]
        assert room.zone_members(2) == [4, 5]

    def test_zone_powers_respect_mask(self):
        room = make_room(n_nodes=6, n_zones=3)
        powers = [50.0] * 6
        mask = [True, False, True, True, True, True]
        q = room.zone_powers(powers, mask)
        assert q[0] == pytest.approx(50.0)
        assert q.sum() == pytest.approx(250.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_room(n_zones=0)
        nodes = make_room().nodes
        with pytest.raises(ConfigurationError):
            ZonalRoom(
                nodes=nodes,
                zone_of=(9,) * len(nodes),
                n_zones=3,
                zone_heat_capacity=1.0,
                mixing_flow=0.1,
                envelope_conductance=1.0,
                t_env=305.0,
                supply_flow=1.0,
            )


class TestZonalSteadyState:
    def test_regulated_top_zone_at_set_point(self):
        sim = make_sim()
        state = sim.steady_state(
            powers=[80.0] * 6, on_mask=[True] * 6, set_point=297.15
        )
        assert state.regulated
        assert state.t_room == pytest.approx(297.15, abs=1e-6)

    def test_stratification_floor_coolest(self):
        # Cold supply pools at the floor: zone temperatures increase
        # with height, so low machines get cooler inlets.
        sim = make_sim()
        state = sim.steady_state(
            powers=[80.0] * 6, on_mask=[True] * 6, set_point=297.15
        )
        inlets = state.t_in
        assert inlets[0] < inlets[-1]

    def test_energy_balance_whole_room(self):
        sim = make_sim()
        powers = [70.0] * 6
        state = sim.steady_state(powers, [True] * 6, 297.15)
        # q = sum(P) + envelope gain summed over zones.
        u = sim.room.envelope_conductance / sim.room.n_zones
        zone_temps = []
        # Reconstruct zone temps from inlet temps of members.
        for z in range(sim.room.n_zones):
            members = sim.room.zone_members(z)
            zone_temps.append(state.t_in[members[0]])
        envelope = sum(
            u * (sim.room.t_env - t) for t in zone_temps
        )
        assert state.q_cool == pytest.approx(
            sum(powers) + envelope, rel=1e-6
        )

    def test_saturation_honest(self):
        from repro.thermal.cooling import CoolingUnit

        room = make_room()
        cooler = CoolingUnit(
            supply_flow=1.0,
            efficiency=0.25,
            q_max=200.0,
            t_ac_min=283.15,
            set_point=290.15,
            fan_power=0.0,
        )
        sim = ZonalRoomSimulation(room, cooler)
        state = sim.steady_state(
            powers=[90.0] * 6, on_mask=[True] * 6, set_point=290.15
        )
        assert not state.regulated
        assert state.q_cool <= 200.0 + 1e-9
        assert state.t_room > 290.15

    def test_stronger_mixing_reduces_stratification(self):
        weak = make_sim(mixing=0.05).steady_state(
            [80.0] * 6, [True] * 6, 297.15
        )
        strong = make_sim(mixing=3.0).steady_state(
            [80.0] * 6, [True] * 6, 297.15
        )
        spread_weak = weak.t_in[-1] - weak.t_in[0]
        spread_strong = strong.t_in[-1] - strong.t_in[0]
        assert spread_strong < spread_weak


class TestZonalTransient:
    def test_integrator_converges_to_linear_solve(self):
        sim = make_sim()
        sim.set_node_powers([75.0] * 6)
        sim.set_set_point(296.15)
        sim.run(6000.0, dt=0.5)
        state = sim.steady_state()
        assert sim.t_room == pytest.approx(state.t_room, abs=0.05)
        assert np.allclose(sim.t_cpu, state.t_cpu, atol=0.15)

    def test_rejects_bad_inputs(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError):
            sim.set_node_powers([1.0, 2.0])
        with pytest.raises(ConfigurationError):
            sim.step(0.0)


class TestZonalTestbed:
    def test_full_pipeline_no_violations(self):
        from repro.core.optimizer import JointOptimizer
        from repro.core.policies import scenario_by_number

        testbed = build_zonal_testbed(
            ZonalConfig(base=TestbedConfig(n_machines=8)), seed=6
        )
        model = testbed.profile().system_model
        optimizer = JointOptimizer(model)
        for fraction in (0.25, 0.6, 0.9):
            load = fraction * testbed.total_capacity
            record = testbed.evaluate(
                scenario_by_number(8).decide(model, load, optimizer=optimizer)
            )
            assert not record.temperature_violated

    def test_fits_remain_tight_out_of_model_class(self):
        testbed = build_zonal_testbed(
            ZonalConfig(base=TestbedConfig(n_machines=8)), seed=6
        )
        profiling = testbed.profile()
        assert min(r.r_squared for r in profiling.node_reports) > 0.995


def test_steady_state_rejects_bad_powers():
    sim = make_sim()
    n = sim.room.node_count
    with pytest.raises(ConfigurationError, match="non-negative.*node 0"):
        sim.steady_state([-500.0] + [50.0] * (n - 1), [True] * n, 297.15)
    powers = [50.0, np.nan] + [50.0] * (n - 2)
    with pytest.raises(ConfigurationError, match="node 1 power must be"):
        sim.steady_state(powers, [True] * n, 297.15)
