"""Fault campaigns: sweep scenarios over controllers, score resilience.

The campaign closes the loop the paper leaves open: a controller plans
from the fitted model while the *ground-truth* thermal simulation —
with a :class:`~repro.faults.injection.FaultInjector` replaying a
scenario into it — decides what actually happens.  Three controllers
run each scenario:

``naive``
    The stock :class:`~repro.core.controller.RuntimeController`.  It
    never learns about faults: crashed machines stay in its plan (their
    load is simply lost) and it keeps trusting the model.
``resilient``
    A :class:`~repro.faults.resilience.ResilientController` wired to
    the injector's hardware-health feed and reading the (faultable)
    CPU temperature sensors each control step.
``oracle``
    A clairvoyant baseline that reads the injector's ground truth
    (failed set, derate factor, set-point drift) and bisects for the
    largest load the *true* room can serve without violating ``T_max``
    — the energy and violation lower bound the others are scored
    against (``energy_overhead_vs_oracle``).

Scoring: violation-seconds (hottest powered-on CPU above ``T_max``),
the same after excusing a ``grace_steps``-control-step detection window
following each fault onset, recovery time, energy, and served/shed
task-seconds.  :func:`run_campaign` sweeps the
:func:`reference_scenarios` and builds the schema-validated document
written to ``benchmarks/results/resilience.json`` by ``repro faults``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.core.controller import RuntimeController
from repro.core.optimizer import JointOptimizer
from repro.errors import ConfigurationError, InfeasibleError
from repro.faults.injection import FaultInjector
from repro.faults.resilience import ResilientController
from repro.faults.scenario import FaultEvent, FaultScenario, FaultSpec
from repro.thermal.sensors import TemperatureSensor
from repro.thermal.simulation import RoomSimulation

#: Controllers every campaign runs, in report order.
CONTROLLERS: tuple[str, ...] = ("naive", "resilient", "oracle")

#: Spawn key reserved for the harness sensor stream (far above any
#: plausible fault count, so fault RNG streams never collide with it).
_SENSOR_SPAWN_KEY = 1 << 20


@dataclass(frozen=True)
class ReferenceScenario:
    """A campaign entry: a fault schedule plus its operating point."""

    scenario: FaultScenario
    load_fraction: float
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.load_fraction <= 1.0:
            raise ConfigurationError(
                f"load_fraction must be in (0, 1], got {self.load_fraction}"
            )


@dataclass(frozen=True)
class ClosedLoopResult:
    """Scored outcome of one controller riding one scenario."""

    scenario: str
    controller: str
    duration: float
    violation_seconds: float
    violation_seconds_after_grace: float
    recovery_seconds: Optional[float]
    energy_joules: float
    offered_task_seconds: float
    served_task_seconds: float
    shed_task_seconds: float
    reconfigurations: int
    suppressed: int
    safe_mode_entries: int
    sensors_quarantined: int
    max_t_cpu: float
    fault_events: tuple[FaultEvent, ...] = field(default=())
    server_energy_joules: float = 0.0

    @property
    def pue(self) -> Optional[float]:
        """Power usage effectiveness: total energy over IT (server)
        energy.  ``None`` when no server energy was drawn."""
        if self.server_energy_joules <= 0.0:
            return None
        return self.energy_joules / self.server_energy_joules

    def to_dict(self) -> dict:
        """JSON-ready metrics row (fault events are reported separately)."""
        return {
            "violation_seconds": self.violation_seconds,
            "violation_seconds_after_grace":
                self.violation_seconds_after_grace,
            "recovery_seconds": self.recovery_seconds,
            "energy_joules": self.energy_joules,
            "offered_task_seconds": self.offered_task_seconds,
            "served_task_seconds": self.served_task_seconds,
            "shed_task_seconds": self.shed_task_seconds,
            "reconfigurations": self.reconfigurations,
            "suppressed": self.suppressed,
            "safe_mode_entries": self.safe_mode_entries,
            "sensors_quarantined": self.sensors_quarantined,
            "max_t_cpu": self.max_t_cpu,
            "server_energy_joules": self.server_energy_joules,
            "pue": self.pue,
        }


@dataclass(frozen=True)
class CampaignResult:
    """All controllers' results for one reference scenario."""

    reference: ReferenceScenario
    runs: dict  # controller name -> ClosedLoopResult

    @property
    def name(self) -> str:
        return self.reference.scenario.name


def reference_scenarios(
    seed: int = 2012, quick: bool = False
) -> list[ReferenceScenario]:
    """The built-in campaign scenarios.

    ``crash-derate`` is the acceptance reference: a machine dies while
    the cooling unit simultaneously loses most of its capacity, so the
    paper's keep-every-CPU-at-``T_max`` optimum must be abandoned or the
    room overheats.  ``quick=True`` returns the two-scenario smoke
    variant CI runs (shorter windows, same structure).
    """
    if quick:
        return [
            ReferenceScenario(
                scenario=FaultScenario(
                    name="crash-derate-quick",
                    seed=seed,
                    duration=1800.0,
                    faults=(
                        FaultSpec(kind="machine_crash", at=300.0,
                                  until=1200.0, machine=1),
                        FaultSpec(kind="ac_derate", at=300.0, until=1200.0,
                                  magnitude=0.04),
                    ),
                ),
                load_fraction=0.75,
                description="crash + severe AC derate, short window",
            ),
            ReferenceScenario(
                scenario=FaultScenario(
                    name="sensor-storm-quick",
                    seed=seed,
                    duration=1500.0,
                    faults=(
                        FaultSpec(kind="sensor_stuck", at=300.0,
                                  until=1020.0, machine=0),
                        FaultSpec(kind="sensor_bias", at=420.0,
                                  until=1140.0, machine=1, magnitude=-6.0),
                        FaultSpec(kind="sensor_dropout", at=540.0,
                                  until=960.0, machine=2),
                    ),
                ),
                load_fraction=0.6,
                description="stuck/biased/dropped sensors, short window",
            ),
        ]
    return [
        ReferenceScenario(
            scenario=FaultScenario(
                name="crash-derate",
                seed=seed,
                duration=5400.0,
                faults=(
                    FaultSpec(kind="machine_crash", at=900.0, until=3600.0,
                              machine=1),
                    FaultSpec(kind="ac_derate", at=900.0, until=3600.0,
                              magnitude=0.04),
                ),
            ),
            load_fraction=0.75,
            description=(
                "a machine dies while the AC loses most of its capacity"
            ),
        ),
        ReferenceScenario(
            scenario=FaultScenario(
                name="sensor-storm",
                seed=seed,
                duration=3600.0,
                faults=(
                    FaultSpec(kind="sensor_stuck", at=600.0, until=2400.0,
                              machine=0),
                    FaultSpec(kind="sensor_bias", at=900.0, until=3000.0,
                              machine=1, magnitude=-6.0),
                    FaultSpec(kind="sensor_dropout", at=1200.0, until=2000.0,
                              machine=2),
                ),
            ),
            load_fraction=0.6,
            description="stuck, cold-biased, and dropped-out sensors",
        ),
        ReferenceScenario(
            scenario=FaultScenario(
                name="surge-drift",
                seed=seed,
                duration=3600.0,
                faults=(
                    FaultSpec(kind="load_surge", at=600.0, until=2400.0,
                              magnitude=1.25),
                    FaultSpec(kind="ac_setpoint_drift", at=900.0,
                              until=3000.0, magnitude=3.0),
                ),
            ),
            load_fraction=0.7,
            description="load surge while the AC set point drifts warm",
        ),
    ]


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


# --------------------------------------------------------------------- #
# Closed-loop harness
# --------------------------------------------------------------------- #


def run_closed_loop(
    testbed,
    controller,
    scenario: FaultScenario,
    base_load: float,
    *,
    injector: Optional[FaultInjector] = None,
    duration: Optional[float] = None,
    control_dt: float = 60.0,
    sim_dt: float = 2.0,
    grace_steps: int = 1,
    attach_injector: bool = False,
    feed_readings: bool = False,
    controller_name: str = "controller",
    sim_engine: str = "numpy",
) -> ClosedLoopResult:
    """Drive one controller through one fault scenario, ground truth on.

    The simulation always carries the injected faults (crashed machines
    draw no power and serve no load; the cooler is derated/drifted); the
    flags control how much the *controller* learns: ``attach_injector``
    subscribes it to the hardware-health feed, ``feed_readings`` streams
    the (corruptible) per-machine CPU readings into
    ``observe_readings``.  A plain controller with both flags off is the
    fault-blind naive baseline.
    """
    if control_dt <= 0.0 or sim_dt <= 0.0 or sim_dt > control_dt:
        raise ConfigurationError(
            f"need 0 < sim_dt <= control_dt, got {sim_dt}, {control_dt}"
        )
    if grace_steps < 0:
        raise ConfigurationError(
            f"grace_steps must be non-negative, got {grace_steps}"
        )
    total = duration if duration is not None else scenario.duration
    if total is None or total <= 0.0:
        raise ConfigurationError(
            "need a positive duration (argument or scenario.duration)"
        )
    t_max = testbed.config.t_max
    inj = injector if injector is not None else FaultInjector(scenario)
    # Auto-reset on scenario start: a fresh cooler copy (set point kept,
    # PI state zeroed) so back-to-back scenarios can never leak integral
    # state between runs.
    cooler = testbed.fresh_cooler()
    sim = RoomSimulation(testbed.room, cooler, engine=sim_engine)
    inj.attach_simulation(sim)
    if attach_injector:
        controller.attach_fault_injector(inj)
    sensor = TemperatureSensor(
        rng=np.random.default_rng(
            np.random.SeedSequence(
                entropy=scenario.seed, spawn_key=(_SENSOR_SPAWN_KEY,)
            )
        ),
        noise_std=0.02,
        resolution=0.01,
    )
    n = testbed.n_machines
    substeps = max(1, int(round(control_dt / sim_dt)))
    energy = 0.0
    server_energy = 0.0
    violation = 0.0
    violation_graced = 0.0
    offered_ts = 0.0
    served_ts = 0.0
    max_t = -math.inf
    last_violation_end: Optional[float] = None
    warm_started = False
    t = 0.0
    with obs.record_run(
        "faults.closed_loop",
        inputs={
            "scenario": scenario.name,
            "controller": controller_name,
            "duration": total,
        },
    ) as rec:
        while t < total - 1e-9:
            inj.advance(t)
            offered = inj.offered_load(base_load)
            readings = inj.filter_readings(t, sensor.read_many(sim.t_cpu))
            if feed_readings:
                controller.observe_readings(t, readings)
            try:
                controller.observe(t, offered)
            except InfeasibleError:
                pass  # fault-blind controllers may find no plan; hold
            plan = controller.plan
            failed = inj.failed_machines
            powers = np.zeros(n)
            mask = np.zeros(n, dtype=bool)
            served = 0.0
            if plan is not None:
                for i in plan.on_ids:
                    if i in failed:
                        continue  # ground truth: a crashed machine is dark
                    powers[i] = testbed.power_models[i].power(
                        float(plan.loads[i])
                    )
                    mask[i] = True
                    served += float(plan.loads[i])
            served = min(served, offered)
            sim.set_node_powers(powers, on_mask=mask)
            if plan is not None:
                sim.set_set_point(plan.t_sp)
            if not warm_started:
                # Start settled: the interesting dynamics are the faults,
                # not the cold-room boot transient.
                state = sim.steady_state(
                    powers=powers, on_mask=mask,
                    set_point=sim.cooler.set_point,
                )
                sim.t_cpu = state.t_cpu.copy()
                sim.t_box = state.t_box.copy()
                sim.t_room = float(state.t_room)
                sim.t_ac = float(state.t_ac)
                warm_started = True
            for _ in range(substeps):
                sim.step(sim_dt)
                energy += sim.total_power * sim_dt
                server_energy += float(powers.sum()) * sim_dt
            on_idx = np.flatnonzero(sim.on_mask)
            hottest = (
                float(np.max(sim.t_cpu[on_idx]))
                if on_idx.size
                else float(sim.t_room)
            )
            max_t = max(max_t, hottest)
            interval_end = t + control_dt
            if hottest > t_max + 1e-6:
                violation += control_dt
                last_violation_end = interval_end
                grace = grace_steps * control_dt + 1e-9
                excused = any(
                    event.phase == "begin"
                    and event.time <= interval_end
                    and interval_end - event.time <= grace
                    for event in inj.events
                )
                if not excused:
                    violation_graced += control_dt
            offered_ts += offered * control_dt
            served_ts += served * control_dt
            t = interval_end
        first_fault = next(
            (e.time for e in inj.events if e.phase == "begin"), None
        )
        recovery: Optional[float] = None
        if first_fault is not None:
            recovery = (
                0.0
                if last_violation_end is None
                else max(0.0, last_violation_end - first_fault)
            )
        result = ClosedLoopResult(
            scenario=scenario.name,
            controller=controller_name,
            duration=total,
            violation_seconds=violation,
            violation_seconds_after_grace=violation_graced,
            recovery_seconds=recovery,
            energy_joules=energy,
            offered_task_seconds=offered_ts,
            served_task_seconds=served_ts,
            shed_task_seconds=max(0.0, offered_ts - served_ts),
            reconfigurations=int(getattr(controller, "reconfigurations", 0)),
            suppressed=int(getattr(controller, "suppressed", 0)),
            safe_mode_entries=int(
                getattr(controller, "safe_mode_entries", 0)
            ),
            sensors_quarantined=sum(
                1
                for d in getattr(
                    getattr(controller, "quarantine", None),
                    "decisions",
                    (),
                )
                if d.action == "quarantine"
            ),
            max_t_cpu=max_t,
            fault_events=tuple(inj.events),
            server_energy_joules=server_energy,
        )
        if rec is not None:
            rec.outcome.update(
                violation_seconds=violation,
                energy_joules=energy,
                fault_transitions=len(inj.events),
            )
    return result


# --------------------------------------------------------------------- #
# Campaign sweep and document
# --------------------------------------------------------------------- #


def _build_controller(name: str, context, injector: FaultInjector):
    if name == "naive":
        return RuntimeController(context.optimizer), False, False
    if name == "resilient":
        return ResilientController(context.optimizer), True, True
    if name == "oracle":
        return (
            _OracleController(context.testbed, context.optimizer, injector),
            False,
            False,
        )
    raise ConfigurationError(f"unknown campaign controller {name!r}")


def run_campaign(
    seed: int = 2012,
    n_machines: int = 6,
    *,
    quick: bool = False,
    scenarios: Optional[Sequence[ReferenceScenario]] = None,
    control_dt: float = 60.0,
    sim_dt: float = 2.0,
    grace_steps: int = 1,
    context=None,
    sim_engine: str = "numpy",
) -> tuple[list[CampaignResult], dict]:
    """Sweep scenarios over the naive/resilient/oracle controllers.

    Returns the raw per-run results and the ``resilience.json`` document
    (its schema is the ``resilience`` spec in
    :data:`repro.obs.artifacts.ARTIFACTS`).
    The whole campaign is a pure function of ``(seed, n_machines,
    scenarios)``: fault schedules, sensor noise, and the profiled
    testbed all derive from ``seed``.
    """
    if context is None:
        from repro.experiments.common import default_context

        context = default_context(
            seed=seed, n_machines=n_machines, sim_engine=sim_engine
        )
    refs = (
        list(scenarios)
        if scenarios is not None
        else reference_scenarios(seed=seed, quick=quick)
    )
    capacity = context.testbed.total_capacity
    results: list[CampaignResult] = []
    for ref in refs:
        base_load = ref.load_fraction * capacity
        runs: dict = {}
        for name in CONTROLLERS:
            injector = FaultInjector(ref.scenario)
            controller, attach, readings = _build_controller(
                name, context, injector
            )
            runs[name] = run_closed_loop(
                context.testbed,
                controller,
                ref.scenario,
                base_load,
                injector=injector,
                control_dt=control_dt,
                sim_dt=sim_dt,
                grace_steps=grace_steps,
                attach_injector=attach,
                feed_readings=readings,
                controller_name=name,
                sim_engine=sim_engine,
            )
        results.append(CampaignResult(reference=ref, runs=runs))
    document = _campaign_document(
        results,
        seed=seed,
        n_machines=context.testbed.n_machines,
        control_dt=control_dt,
        sim_dt=sim_dt,
        grace_steps=grace_steps,
    )
    return results, document


def _campaign_document(
    results: Sequence[CampaignResult],
    *,
    seed: int,
    n_machines: int,
    control_dt: float,
    sim_dt: float,
    grace_steps: int,
) -> dict:
    scenarios = []
    for result in results:
        oracle_energy = result.runs["oracle"].energy_joules
        controllers = {}
        for name in CONTROLLERS:
            run = result.runs[name]
            row = run.to_dict()
            row["energy_overhead_vs_oracle"] = (
                (run.energy_joules - oracle_energy) / oracle_energy
                if oracle_energy > 0.0
                else None
            )
            controllers[name] = row
        scenarios.append(
            {
                "name": result.name,
                "description": result.reference.description,
                "load_fraction": result.reference.load_fraction,
                "duration": result.runs["naive"].duration,
                "fault_transitions": len(result.runs["naive"].fault_events),
                "controllers": controllers,
            }
        )
    return {
        "schema": 1,
        "kind": "resilience",
        "seed": seed,
        "machines": n_machines,
        "control_dt": control_dt,
        "sim_dt": sim_dt,
        "grace_steps": grace_steps,
        "scenarios": scenarios,
    }
