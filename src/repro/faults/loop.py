"""The closed-loop march both campaigns score.

:func:`march` drives a controller, which plans from the fitted model,
against the *ground-truth* RK4 simulation with a
:class:`~repro.faults.injection.FaultInjector` replaying a scenario into
it, and returns a :class:`Trajectory` of what happened.  The fault
campaign (:func:`repro.faults.campaign.run_closed_loop`) and the MPC
campaign (:func:`repro.control.campaign.run_demand_loop`) differ only in
the balancer they pass in and in how they score the trajectory.  The
clairvoyant oracle both score against lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError, InfeasibleError
from repro.faults.injection import FaultInjector
from repro.faults.scenario import FaultEvent, FaultScenario
from repro.thermal.plant import ChillerPlant
from repro.thermal.sensors import TemperatureSensor
from repro.thermal.simulation import RoomSimulation
from repro.workload.weather import WeatherTrace

#: Spawn key reserved for the harness sensor stream (far above any
#: plausible fault count, so fault RNG streams never collide with it).
_SENSOR_SPAWN_KEY = 1 << 20


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


class Substep(NamedTuple):
    """One simulator step: the offered load, what each machine served,
    and the hottest live CPU after the step (room air if none is live)."""

    offered: float
    loads: np.ndarray
    hottest: float


class Interval(NamedTuple):
    """One control interval: what the controller planned for, the live
    on-set (its plan's on-set minus crashed machines), how many fault
    events had fired by the interval's end, and its substeps."""

    time: float
    offered: float
    on_set: frozenset
    events_seen: int
    substeps: tuple[Substep, ...]


@dataclass(frozen=True)
class Trajectory:
    """What one closed-loop run did, with its energy and water meters."""

    intervals: tuple[Interval, ...]
    events: tuple[FaultEvent, ...]  # every fault transition fired
    energy_joules: float  # total draw (cooling plant-priced with a plant)
    server_energy_joules: float
    water_liters: Optional[float]  # cooling tower; None without one


@dataclass(frozen=True)
class LoopResult:
    """Scored outcome of one controller riding one closed-loop run: the
    figures both campaigns report."""

    scenario: str
    controller: str
    duration: float
    violation_seconds: float
    energy_joules: float
    server_energy_joules: float
    offered_task_seconds: float
    served_task_seconds: float
    reconfigurations: int
    suppressed: int
    max_t_cpu: float

    @property
    def shed_task_seconds(self) -> float:
        return max(0.0, self.offered_task_seconds - self.served_task_seconds)

    @property
    def pue(self) -> Optional[float]:
        """Power usage effectiveness: total energy over IT (server)
        energy.  ``None`` when no server energy was drawn."""
        if self.server_energy_joules <= 0.0:
            return None
        return self.energy_joules / self.server_energy_joules

    def overhead_vs(self, oracle: "LoopResult") -> Optional[float]:
        """Energy overhead over the oracle's run, ``None`` if it drew
        none."""
        oracle_energy = oracle.energy_joules
        if oracle_energy <= 0.0:
            return None
        return (self.energy_joules - oracle_energy) / oracle_energy

    def to_dict(self) -> dict:
        """JSON-ready metrics row: every field but the run's labels and
        its fault events (reported separately), plus the derived
        figures."""
        row = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("scenario", "controller", "duration",
                              "fault_events")
        }
        row.update(shed_task_seconds=self.shed_task_seconds, pue=self.pue)
        return row


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
    """Drive one controller through ``duration`` seconds, ground truth on.

    Once per ``control_dt`` the controller observes the offered load,
    ``demand(t)`` after the injector's surges, and fixes the on-set and
    the set point.  Every ``sim_dt`` substep,
    ``balancer(offered, plan_loads, caps, mask)`` decides what the live
    on-set serves.  The simulation always carries the injected faults:
    crashed machines draw no power and serve no load, and the cooler is
    derated or drifted.  What the controller learns depends on it:
    ``attach_injector`` subscribes it to the hardware-health feed, a
    controller with ``observe_readings`` gets the (corruptible) CPU
    readings, and one with ``observe_thermal_state`` gets the exact
    thermal state from the second interval on.  The room starts settled
    at the first plan's steady state, so every controller boots from the
    same room.  With a ``plant`` and ``weather``, each substep's cooling
    electricity is priced through the chiller plant's weather-dependent
    COP and hysteretic economizer; the air-side thermals are untouched.
    """
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


# --------------------------------------------------------------------- #
# The clairvoyant oracle
# --------------------------------------------------------------------- #


class _OracleController:
    """Clairvoyant baseline: plans from the injector's ground truth.

    At every fault-state change it bisects for the largest load the
    *true* (derated, drifted) room can serve at steady state without any
    powered-on CPU exceeding ``t_max - margin``, compensating set-point
    drift exactly.  It is the lower bound on both violation-seconds
    (zero by construction, up to transients) and energy.
    """

    def __init__(
        self,
        testbed,
        optimizer: JointOptimizer,
        injector: FaultInjector,
        margin: float = 1.0,
    ) -> None:
        self.testbed = testbed
        self.optimizer = optimizer
        self.injector = injector
        self.margin = margin
        self._plan = None
        self.reconfigurations = 0
        self.suppressed = 0
        self._probe_cooler = testbed.fresh_cooler()
        self._probe = RoomSimulation(testbed.room, self._probe_cooler)
        self._nominal_q_max = float(testbed.cooler.q_max)
        self._cache: dict = {}

    @property
    def plan(self):
        return self._plan

    def observe(self, time: float, load: float):
        self.injector.advance(time)
        key = (
            self.injector.failed_machines,
            round(self.injector.derate_factor, 9),
            round(self.injector.set_point_offset, 9),
            round(load, 6),
        )
        if key not in self._cache:
            self._cache[key] = self._solve(load)
        plan = self._cache[key]
        if plan is not self._plan:
            self._plan = plan
            self.reconfigurations += 1
        return plan

    def _solve(self, load: float):
        failed = self.injector.failed_machines
        exclude = sorted(failed)
        capacity = sum(
            c
            for i, c in enumerate(self.optimizer.model.capacities)
            if i not in failed
        )
        target = min(load, capacity)
        plan = self._feasible_plan(target, exclude)
        if plan is not None:
            return plan
        # Bisect for the largest serveable load under the true faults.
        lo, hi = 0.0, target
        best = None
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            candidate = self._feasible_plan(mid, exclude)
            if candidate is not None:
                best, lo = candidate, mid
            else:
                hi = mid
        return best

    def _feasible_plan(self, load: float, exclude):
        """An optimizer plan for ``load`` whose *true* steady state stays
        under ``t_max``, with the commanded set point corrected for drift
        and relaxed toward optimal where the truth allows; ``None`` if
        the true room cannot serve ``load`` at any set point."""
        if load <= 1e-6:
            return None
        try:
            plan = self.optimizer.solve(load, exclude=exclude)
        except InfeasibleError:
            return None
        model = self.optimizer.model
        drift = self.injector.set_point_offset
        server_power = float(
            np.sum(self.testbed.true_server_powers(plan.loads, plan.on_ids))
        )
        coldest = model.cooler.set_point_for(
            model.cooler.t_ac_min, server_power
        )
        optimal = plan.t_sp
        if self._true_max_cpu(plan, optimal + drift) is not None:
            return plan  # the model-optimal set point truly holds
        if self._true_max_cpu(plan, coldest + drift) is None:
            return None  # even the coldest air cannot save this load
        lo, hi = coldest, optimal  # warmest feasible effective set point
        for _ in range(6):
            mid = 0.5 * (lo + hi)
            if self._true_max_cpu(plan, mid + drift) is not None:
                lo = mid
            else:
                hi = mid
        return replace(plan, t_sp=lo)  # commanded; drift adds on top

    def _true_max_cpu(self, plan, effective_sp: float):
        """Hottest true steady-state CPU under a plan and effective set
        point, or ``None`` if it exceeds ``t_max - margin``."""
        self._probe_cooler.q_max = (
            self._nominal_q_max * self.injector.derate_factor
        )
        powers = self.testbed.true_server_powers(plan.loads, plan.on_ids)
        mask = np.zeros(self.testbed.n_machines, dtype=bool)
        mask[list(plan.on_ids)] = True
        state = self._probe.steady_state(
            powers=powers, on_mask=mask, set_point=effective_sp
        )
        hottest = (
            float(np.max(state.t_cpu[mask]))
            if mask.any()
            else state.t_room
        )
        if hottest > self.testbed.config.t_max - self.margin:
            return None
        return hottest
