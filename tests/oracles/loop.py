"""Per-substep reference for the closed-loop march and its balancers.

The readable specification of :func:`repro.faults.loop.march`: every
``sim_dt`` substep reads the demand, asks a scalar balancer for the
loads, evaluates the power laws, sets the simulation's inputs and
steps it.  The shipped march builds each control interval's inputs in
whole-array passes and must reproduce this one's :class:`Trajectory`
bit for bit.  The scalar balancers here take one offered load and
return one load vector; their shipped twins take a vector of offered
loads and return one row per entry.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigurationError, InfeasibleError
from repro.faults.injection import FaultInjector
from repro.faults.loop import (
    _SENSOR_SPAWN_KEY,
    Interval,
    Substep,
    Trajectory,
)
from repro.faults.scenario import FaultScenario
from repro.thermal.plant import ChillerPlant
from repro.thermal.sensors import TemperatureSensor
from repro.thermal.simulation import RoomSimulation
from repro.workload.weather import WeatherTrace


def follow_plan(offered, plan_loads, caps, mask) -> np.ndarray:
    """Serve exactly the plan's allocation, whatever the offered load."""
    return plan_loads


def follow_demand(
    offered: float,
    plan_loads: np.ndarray,
    caps: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Demand-following load balancer over the live on-set.

    Offered load at or below the planned total scales the plan's
    allocation down proportionally; offered load above it waterfills the
    surplus into each on machine's remaining capacity headroom.  Demand
    beyond the on-set's total capacity is shed.
    """
    loads = np.zeros_like(plan_loads)
    if offered <= 0.0 or not mask.any():
        return loads
    plan_total = float(plan_loads[mask].sum())
    if plan_total <= 0.0:
        # Degenerate plan: split by capacity alone.
        cap_on = float(caps[mask].sum())
        if cap_on <= 0.0:
            return loads
        frac = min(offered / cap_on, 1.0)
        loads[mask] = frac * caps[mask]
        return loads
    if offered <= plan_total:
        loads[mask] = plan_loads[mask] * (offered / plan_total)
        return loads
    headroom = np.where(mask, caps - plan_loads, 0.0)
    headroom = np.maximum(headroom, 0.0)
    total_headroom = float(headroom.sum())
    surplus = offered - plan_total
    if total_headroom <= 0.0 or surplus >= total_headroom:
        loads[mask] = caps[mask]  # saturated: shed the rest
        return loads
    loads[mask] = (
        plan_loads[mask] + headroom[mask] * (surplus / total_headroom)
    )
    return loads



def march(
    testbed,
    controller,
    faults: FaultScenario,
    demand: Callable[[float], float],
    balancer: Callable[..., np.ndarray],
    *,
    duration: Optional[float],
    injector: Optional[FaultInjector] = None,
    control_dt: float = 60.0,
    sim_dt: float = 2.0,
    attach_injector: bool = False,
    plant: Optional[ChillerPlant] = None,
    weather: Optional[WeatherTrace] = None,
) -> Trajectory:
    """:func:`repro.faults.loop.march`, one substep at a time: every
    ``sim_dt`` substep calls the scalar
    ``balancer(offered, plan_loads, caps, mask)`` (:func:`follow_plan`
    or :func:`follow_demand` of this module), the power laws and
    ``sim.set_node_powers`` before ``sim.step``."""
    if control_dt <= 0.0 or sim_dt <= 0.0 or sim_dt > control_dt:
        raise ConfigurationError(
            f"need 0 < sim_dt <= control_dt, got {sim_dt}, {control_dt}"
        )
    substeps = round(control_dt / sim_dt)
    if abs(substeps * sim_dt - control_dt) > 1e-9 * control_dt:
        raise ConfigurationError(
            f"sim_dt {sim_dt} must divide control_dt {control_dt}"
        )
    if duration is None or duration <= 0.0:
        raise ConfigurationError(
            "need a positive duration (argument or scenario.duration)"
        )
    if (plant is None) != (weather is None):
        raise ConfigurationError(
            "a chiller plant and a weather trace go together (wet-bulb "
            "drives the plant's COP and economizer)"
        )
    inj = injector if injector is not None else FaultInjector(faults)
    # Auto-reset on scenario start: a fresh cooler copy (set point kept,
    # PI state zeroed) so back-to-back scenarios can never leak integral
    # state between runs.
    cooler = testbed.fresh_cooler()
    sim = RoomSimulation(testbed.room, cooler)
    # Per-run plant copy: mode machine starts mechanical and acts on
    # this run's cooler, so scenarios can't leak hysteresis state.
    run_plant = (
        replace(plant, cooling_unit=cooler, _mode="mechanical")
        if plant is not None
        else None
    )
    inj.attach_simulation(sim)
    if attach_injector:
        controller.attach_fault_injector(inj)
    reads = hasattr(controller, "observe_readings")
    watches = hasattr(controller, "observe_thermal_state")
    sensor = TemperatureSensor(
        rng=np.random.default_rng(
            np.random.SeedSequence(
                entropy=faults.seed, spawn_key=(_SENSOR_SPAWN_KEY,)
            )
        ),
        noise_std=0.02,
        resolution=0.01,
    )
    n = testbed.n_machines
    caps = np.array(
        [pm.capacity for pm in testbed.power_models], dtype=float
    )
    energy = 0.0
    server_energy = 0.0
    water: Optional[float] = (
        0.0 if run_plant is not None and run_plant.tower is not None
        else None
    )
    intervals: list[Interval] = []
    warm_started = False
    t = 0.0
    while t < duration - 1e-9:
        inj.advance(t)
        offered = inj.offered_load(demand(t))
        if reads:
            readings = inj.filter_readings(t, sensor.read_many(sim.t_cpu))
            controller.observe_readings(t, readings)
        if watches and warm_started:
            controller.observe_thermal_state(
                t, sim.t_cpu.copy(), sim.t_box.copy(), sim.t_room
            )
        try:
            controller.observe(t, offered)
        except InfeasibleError:
            pass  # no feasible plan (fault-blind, or over capacity): hold
        plan = controller.plan
        failed = inj.failed_machines
        plan_loads = np.zeros(n)
        mask = np.zeros(n, dtype=bool)
        if plan is not None:
            for i in plan.on_ids:
                if i in failed:
                    continue  # ground truth: a crashed machine is dark
                plan_loads[i] = float(plan.loads[i])
                mask[i] = True
            sim.set_set_point(plan.t_sp)
        live = np.flatnonzero(mask)
        steps = []
        for k in range(substeps):
            t_sub = t + k * sim_dt
            offered_sub = inj.offered_load(demand(t_sub))
            loads = balancer(offered_sub, plan_loads, caps, mask)
            powers = testbed.true_server_powers(loads, live)
            sim.set_node_powers(powers, on_mask=mask)
            if not warm_started:
                # Start settled: the interesting dynamics are the faults
                # and demand transients, not the cold-room boot.
                state = sim.steady_state(
                    powers=powers, on_mask=mask,
                    set_point=sim.cooler.set_point,
                )
                sim.t_cpu = state.t_cpu.copy()
                sim.t_box = state.t_box.copy()
                sim.t_room = float(state.t_room)
                sim.t_ac = float(state.t_ac)
                warm_started = True
            sim.step(sim_dt)
            servers = float(powers.sum())
            server_energy += servers * sim_dt
            if run_plant is None:
                energy += sim.total_power * sim_dt
            else:
                # Same heat removal, weather-priced electricity: the
                # coil's q_cool is what the room physics settled on; the
                # plant converts it to watts at this wet-bulb in the
                # hysteretic mode in force.
                t_wb = weather.wetbulb_at(t_sub)
                run_plant.advance_mode(t_wb)
                energy += (
                    servers
                    + run_plant.electrical_power(cooler.q_cool, t_wb)
                ) * sim_dt
                rate = run_plant.water_rate(cooler.q_cool, t_wb)
                if rate is not None and water is not None:
                    water += rate * sim_dt
            hottest = (
                float(np.max(sim.t_cpu[live]))
                if live.size
                else float(sim.t_room)
            )
            steps.append(Substep(offered_sub, loads, hottest))
        intervals.append(
            Interval(t, offered, frozenset(int(i) for i in live),
                     len(inj.events), tuple(steps))
        )
        t += control_dt
    return Trajectory(
        intervals=tuple(intervals),
        events=tuple(inj.events),
        energy_joules=energy,
        server_energy_joules=server_energy,
        water_liters=water,
    )
