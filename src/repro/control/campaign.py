"""MPC campaign: reactive vs MPC vs oracle over time-varying demand.

The fault campaign (:mod:`repro.faults.campaign`) scores controllers
against disturbances at a *steady* operating point; this campaign scores
them against *moving demand* — the regime the paper defers.  Four
controllers replay each demand scenario against the ground-truth
transient simulation:

``reactive``
    The plain :class:`~repro.core.controller.RuntimeController` — the
    paper's replanner driven by the instantaneous load alone.  A flash
    crowd beyond total capacity leaves it with no feasible target: it
    freezes on the pre-surge plan while the balancer saturates the
    stale on-set under pre-surge cooling, and CPU temperatures ride
    through ``T_max`` until the surge decays back inside capacity.
``resilient``
    The :class:`~repro.faults.resilience.ResilientController`
    (production baseline from PR 4): its shed-retry ladder always finds
    a feasible target, so it stays thermally safe — by serving less,
    with its thermal guard priced in as extra cooling energy.
``mpc``
    The :class:`~repro.control.mpc.MPCController` with the replayed
    trace as its demand forecast: pre-provisions machines and pre-cools
    the room before surges it can see coming, and saturates its
    admission target at capacity instead of freezing.
``oracle``
    The clairvoyant steady-state planner the fault campaign shares
    (:mod:`repro.faults.loop`) — plans from the injector's ground truth
    at every step; the energy floor the others are scored against.

Scoring: violation-seconds (hottest powered-on CPU above ``T_max``),
energy (J), served/shed task-seconds, on-set changes (machines actually
cycled), and the MPC solver counters.  :func:`run_mpc_campaign` builds
the schema-validated document written to
``benchmarks/results/mpc.json`` by ``repro mpc`` (see the ``mpc`` spec
in :data:`repro.obs.artifacts.ARTIFACTS`); its ``dominance`` section is
the acceptance gate — MPC must strictly dominate the reactive
controller on at least one flash-crowd scenario (fewer
violation-seconds at equal-or-lower energy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.control.mpc import MPCController
from repro.control.plant import LinearizedPlant
from repro.core.controller import RuntimeController
from repro.errors import ConfigurationError
from repro.faults.injection import FaultInjector
from repro.faults.loop import (
    LoopResult,
    _OracleController,
    follow_demand,
    march,
)
from repro.faults.resilience import ResilientController
from repro.faults.scenario import FaultScenario, FaultSpec
from repro.thermal.plant import ChillerPlant, default_plant
from repro.workload.traces import (
    LoadTrace,
    constant_trace,
    diurnal_trace,
    flash_crowd_trace,
    noisy_trace,
    overlay_traces,
)
from repro.workload.weather import WeatherTrace, diurnal_wetbulb, heat_wave

#: Controllers every MPC campaign runs, in report order.
MPC_CONTROLLERS: tuple[str, ...] = (
    "reactive", "resilient", "mpc", "oracle"
)


def _empty_faults(name: str, seed: int, duration: float) -> FaultScenario:
    return FaultScenario(
        name=f"{name}-faults", seed=seed, faults=(), duration=duration
    )


@dataclass(frozen=True)
class DemandScenario:
    """One campaign entry: a demand trace plus an optional fault overlay."""

    name: str
    trace: LoadTrace
    faults: FaultScenario
    description: str = ""
    flash_crowd: bool = False  # eligible for the dominance gate
    weather: Optional[WeatherTrace] = None  # overrides the campaign trace

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario needs a non-empty name")


@dataclass(frozen=True)
class DemandLoopResult(LoopResult):
    """Scored outcome of one controller riding one demand scenario."""

    on_set_changes: int
    horizon_solves: int = 0
    fallbacks: int = 0
    precools: int = 0
    water_liters: Optional[float] = None

    @property
    def wue_l_per_kwh(self) -> Optional[float]:
        """Water usage effectiveness: tower liters per IT kWh.  ``None``
        without a cooling tower in the loop."""
        if self.water_liters is None or self.server_energy_joules <= 0.0:
            return None
        return self.water_liters / (self.server_energy_joules / 3.6e6)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "wue_l_per_kwh": self.wue_l_per_kwh}


def demand_scenarios(
    capacity: float, seed: int = 2012, quick: bool = False
) -> list[DemandScenario]:
    """The built-in demand scenarios, scaled to a cluster's capacity.

    ``flash-crowd`` is the acceptance reference: a sudden surge the
    reactive controller only sees when it arrives but the forecast-fed
    MPC can pre-cool for.  ``quick=True`` compresses every window for
    the CI smoke job (same shapes, shorter replay).
    """
    if capacity <= 0.0:
        raise ConfigurationError(
            f"capacity must be positive, got {capacity}"
        )
    scale = 0.4 if quick else 1.0
    diurnal_len = 7200.0 * scale
    flash_len = 5400.0 * scale
    onset = 2400.0 * scale
    # The decay constant is floored rather than fully compressed in
    # quick mode: the room's thermal time constant does not scale, and
    # the overload window (decay * ln(spike / (capacity - base))) must
    # stay longer than the CPU-temperature climb time for the frozen
    # reactive plan to actually breach T_max.
    decay = max(600.0, 900.0 * scale)
    diurnal = noisy_trace(
        diurnal_trace(
            base=0.35 * capacity,
            peak=0.8 * capacity,
            duration=diurnal_len,
            period=diurnal_len,
            peak_time=0.5 * diurnal_len,
        ),
        noise_std=0.01 * capacity,
        seed=seed,
    )
    # The spike tops out *above* total capacity: the reactive planner
    # has no feasible target, freezes on its pre-surge plan, and rides
    # the saturated on-set hot, while the forecast-fed MPC saturates
    # its admission target at capacity and pre-cools for the surge.
    flash = overlay_traces(
        constant_trace(0.55 * capacity, duration=flash_len),
        flash_crowd_trace(
            base=0.0,
            spike=0.75 * capacity,
            onset=onset,
            duration=flash_len,
            decay=decay,
            rise=60.0 * scale,
        ),
    )
    derate_surge = overlay_traces(
        constant_trace(0.4 * capacity, duration=flash_len),
        flash_crowd_trace(
            base=0.0,
            spike=0.3 * capacity,
            onset=onset,
            duration=flash_len,
            decay=decay,
            rise=60.0,
        ),
    )
    return [
        DemandScenario(
            name="diurnal",
            trace=diurnal,
            faults=_empty_faults("diurnal", seed, diurnal_len),
            description="compressed day curve with seeded jitter",
        ),
        DemandScenario(
            name="flash-crowd",
            trace=flash,
            faults=_empty_faults("flash-crowd", seed, flash_len),
            description=(
                "sudden-onset surge with exponential decay over a "
                "steady base"
            ),
            flash_crowd=True,
        ),
        DemandScenario(
            name="derate-surge",
            trace=derate_surge,
            faults=FaultScenario(
                name="derate-surge-faults",
                seed=seed,
                duration=flash_len,
                faults=(
                    # q_max is heavily oversized for this room; only a
                    # deep derate (compare the fault campaign's 0.04)
                    # actually squeezes the heat path.
                    FaultSpec(
                        kind="ac_derate",
                        at=onset - 300.0 * scale,
                        until=onset + 2.0 * decay,
                        magnitude=0.06,
                    ),
                ),
            ),
            description=(
                "a flash crowd landing while the AC has lost almost "
                "half its capacity"
            ),
        ),
    ]


def heat_wave_scenario(
    capacity: float,
    seed: int = 2012,
    quick: bool = False,
    base_wetbulb: float = 295.15,
    amplitude: float = 8.0,
) -> DemandScenario:
    """An afternoon demand peak landing under a wet-bulb heat wave.

    The stress case weather-aware control exists for: the chiller's COP
    collapses (wet-bulb up ``amplitude`` K) exactly while demand crests,
    so cooling is at its most expensive when the room needs it most.
    The scenario carries its own wet-bulb trace
    (:attr:`DemandScenario.weather`), overriding the campaign-level one.
    """
    scale = 0.4 if quick else 1.0
    length = 7200.0 * scale
    demand = noisy_trace(
        diurnal_trace(
            base=0.4 * capacity,
            peak=0.85 * capacity,
            duration=length,
            period=length,
            peak_time=0.55 * length,
        ),
        noise_std=0.01 * capacity,
        seed=seed,
    )
    wave = heat_wave(
        diurnal_wetbulb(
            mean=base_wetbulb,
            swing=3.0,
            duration=length,
            period=length,
            warmest_time=0.55 * length,
            noise_std=0.3,
            seed=seed,
        ),
        onset=0.25 * length,
        length=0.6 * length,
        amplitude=amplitude,
    )
    return DemandScenario(
        name="heat-wave",
        trace=demand,
        faults=_empty_faults("heat-wave", seed, length),
        description=(
            "afternoon demand peak under a wet-bulb heat wave: COP "
            "collapses exactly when the room runs hottest"
        ),
        weather=wave,
    )


# --------------------------------------------------------------------- #
# Closed-loop demand harness
# --------------------------------------------------------------------- #


def _demand(trace, sim_dt: float):
    """``trace.load_at`` for the march and the MPC forecast.

    Both read the trace at multiples of ``sim_dt``, so a
    :class:`LoadTrace` serves them from its pre-sampled grid
    (:meth:`LoadTrace.grid`), bit for bit its ``load_at``; any other
    object with a ``load_at`` is read through it directly.
    """
    if isinstance(trace, LoadTrace):
        return trace.grid(sim_dt).load_at
    return trace.load_at


def run_demand_loop(
    testbed,
    controller,
    scenario: DemandScenario,
    *,
    injector: Optional[FaultInjector] = None,
    control_dt: float = 60.0,
    sim_dt: float = 2.0,
    attach_injector: bool = False,
    controller_name: str = "controller",
    plant: Optional[ChillerPlant] = None,
    weather: Optional[WeatherTrace] = None,
) -> DemandLoopResult:
    """Drive one controller through one demand scenario, ground truth on.

    The offered load follows the scenario's trace, and the machines
    track it at simulator resolution
    (:func:`~repro.faults.loop.march` with
    :func:`~repro.faults.loop.follow_demand`) while the controller
    decides the on-set and the cooling once per ``control_dt``.  A surge
    landing between control decisions therefore heats the live on-set
    under the *old* supply temperature until the next replan — the
    transient window pre-provisioning and pre-cooling exist to cover.
    The run is scored per substep: every ``sim_dt`` the hottest live CPU
    spends above ``T_max`` is a violation.

    With a ``plant`` and ``weather`` (a scenario-level
    ``scenario.weather`` overrides the argument), the cooling energy is
    priced through the chiller plant, and the result carries PUE plus
    (with a cooling tower) water use and WUE.
    """
    t_max = testbed.config.t_max
    wx = scenario.weather if scenario.weather is not None else weather
    with obs.record_run(
        "control.demand_loop",
        inputs={
            "scenario": scenario.name,
            "controller": controller_name,
            "duration": scenario.trace.duration,
        },
    ) as rec:
        run = march(
            testbed, controller, scenario.faults,
            _demand(scenario.trace, sim_dt),
            follow_demand, duration=scenario.trace.duration,
            injector=injector, control_dt=control_dt, sim_dt=sim_dt,
            attach_injector=attach_injector, plant=plant, weather=wx,
        )
        violation = 0.0
        offered_ts = 0.0
        served_ts = 0.0
        max_t = -math.inf
        on_set_changes = sum(
            later.on_set != earlier.on_set
            for earlier, later in zip(run.intervals, run.intervals[1:])
        )
        for interval in run.intervals:
            for step in interval.substeps:
                max_t = max(max_t, step.hottest)
                if step.hottest > t_max + 1e-6:
                    violation += sim_dt
                offered_ts += step.offered * sim_dt
                served_ts += float(step.loads.sum()) * sim_dt
        result = DemandLoopResult(
            scenario=scenario.name,
            controller=controller_name,
            duration=scenario.trace.duration,
            violation_seconds=violation,
            energy_joules=run.energy_joules,
            offered_task_seconds=offered_ts,
            served_task_seconds=served_ts,
            reconfigurations=int(getattr(controller, "reconfigurations", 0)),
            suppressed=int(getattr(controller, "suppressed", 0)),
            on_set_changes=on_set_changes,
            max_t_cpu=max_t,
            horizon_solves=int(getattr(controller, "horizon_solves", 0)),
            fallbacks=int(getattr(controller, "fallbacks", 0)),
            precools=int(getattr(controller, "precools", 0)),
            server_energy_joules=run.server_energy_joules,
            water_liters=run.water_liters,
        )
        if rec is not None:
            rec.outcome.update(
                violation_seconds=violation,
                energy_joules=run.energy_joules,
                on_set_changes=on_set_changes,
            )
    return result


# --------------------------------------------------------------------- #
# Campaign sweep and document
# --------------------------------------------------------------------- #


def _build_controller(
    name: str,
    context,
    scenario: DemandScenario,
    injector: FaultInjector,
    *,
    horizon: int,
    sim_dt: float,
    plant: LinearizedPlant,
):
    """(controller, attach_injector)."""
    if name == "reactive":
        return RuntimeController(context.optimizer), True
    if name == "resilient":
        return ResilientController(context.optimizer), True
    if name == "mpc":
        controller = MPCController(
            context.optimizer,
            plant,
            # Forecast times are whole control intervals: on the grid.
            forecast=_demand(scenario.trace, sim_dt),
            horizon=horizon,
        )
        return controller, True
    if name == "oracle":
        return (
            _OracleController(
                context.testbed, context.optimizer, injector
            ),
            False,
        )
    raise ConfigurationError(f"unknown campaign controller {name!r}")


def _weather_context(
    context,
    scenario: DemandScenario,
    chiller: Optional[ChillerPlant],
    weather: Optional[WeatherTrace],
    control_dt: float,
):
    """Context whose optimizer prices cooling at this scenario's weather.

    Re-derives the paper's lumped cooling constant ``c`` (Eq. 10) as a
    local linearization of the chiller plant at the scenario's mean
    wet-bulb and expected cooling load, then rebuilds the optimizer on
    the re-linearized model.  Without weather the context passes through
    unchanged.
    """
    if chiller is None or weather is None:
        return context
    import dataclasses

    from repro.core.optimizer import JointOptimizer

    wx = scenario.weather if scenario.weather is not None else weather
    wb = wx.mean(dt=control_dt)
    probe = replace(chiller, _mode="mechanical")
    probe.advance_mode(wb)
    # Expected heat to remove: the fitted power law at the scenario's
    # mean demand, with a machine count big enough to carry it.
    model = context.model
    mean_load = float(np.mean(scenario.trace.sample(control_dt)))
    capacity = context.testbed.total_capacity
    n = context.testbed.n_machines
    n_est = max(1, math.ceil(mean_load / max(capacity / n, 1e-9)))
    q_ref = max(model.power.w1 * mean_load + model.power.w2 * n_est, 0.0)
    model2 = chiller.linearized_model(
        model, wb, q_ref, mode=probe.mode
    )
    return dataclasses.replace(
        context, optimizer=JointOptimizer(model2)
    )


def run_mpc_campaign(
    seed: int = 2012,
    n_machines: int = 6,
    *,
    quick: bool = False,
    horizon: int = 6,
    scenarios: Optional[Sequence[DemandScenario]] = None,
    control_dt: float = 60.0,
    sim_dt: float = 2.0,
    context=None,
    chiller: Optional[ChillerPlant] = None,
    weather: Optional[WeatherTrace] = None,
) -> tuple[dict, dict]:
    """Sweep demand scenarios over the reactive/MPC/oracle controllers.

    Returns ``(results, document)``: the raw per-run
    :class:`DemandLoopResult` objects keyed ``results[scenario][name]``,
    and the ``mpc.json`` document (schema: the ``mpc`` spec in
    :data:`repro.obs.artifacts.ARTIFACTS`).  The whole campaign is a
    pure function of ``(seed, n_machines, scenarios, horizon)``.

    With ``weather`` (and optionally an explicit ``chiller``), the
    campaign turns weather-aware: every run is re-priced through the
    chiller plant, a ``heat-wave`` scenario joins the built-in set, and
    each scenario's optimizer operates on the fitted model re-linearized
    at that scenario's mean wet-bulb and expected cooling load
    (:meth:`~repro.thermal.plant.ChillerPlant.linearized_model`) — the
    Eq. 10 seam: the closed form, the MPC LP, and the subset scorer run
    structurally unchanged per operating point.
    """
    if context is None:
        from repro.experiments.common import default_context

        context = default_context(seed=seed, n_machines=n_machines)
    testbed = context.testbed
    if chiller is not None and weather is None:
        raise ConfigurationError(
            "a chiller plant needs a weather trace (wet-bulb drives "
            "its COP and economizer)"
        )
    if weather is not None and chiller is None:
        chiller = default_plant(testbed.fresh_cooler())
    entries = (
        list(scenarios)
        if scenarios is not None
        else demand_scenarios(
            testbed.total_capacity, seed=seed, quick=quick
        )
    )
    if weather is not None and scenarios is None:
        entries.append(
            heat_wave_scenario(
                testbed.total_capacity,
                seed=seed,
                quick=quick,
                base_wetbulb=weather.mean(dt=3600.0),
            )
        )
    plant = LinearizedPlant.from_testbed(testbed, dt=control_dt)
    results: dict = {}
    with obs.timed("control/mpc_campaign"):
        for scenario in entries:
            scenario_context = _weather_context(
                context, scenario, chiller, weather, control_dt
            )
            runs: dict = {}
            for name in MPC_CONTROLLERS:
                injector = FaultInjector(scenario.faults)
                controller, attach = _build_controller(
                    name, scenario_context, scenario, injector,
                    horizon=horizon, sim_dt=sim_dt, plant=plant,
                )
                runs[name] = run_demand_loop(
                    testbed,
                    controller,
                    scenario,
                    injector=injector,
                    control_dt=control_dt,
                    sim_dt=sim_dt,
                    attach_injector=attach,
                    controller_name=name,
                    plant=chiller,
                    weather=weather,
                )
            results[scenario.name] = runs
        obs.set_span_attributes(
            scenarios=len(entries), horizon=horizon
        )
    document = _campaign_document(
        entries,
        results,
        seed=seed,
        n_machines=testbed.n_machines,
        horizon=horizon,
        control_dt=control_dt,
        sim_dt=sim_dt,
        capacity=testbed.total_capacity,
    )
    if weather is not None:
        document["weather"] = {
            "mean_wetbulb_k": weather.mean(dt=3600.0),
            "economizer": chiller.economizer is not None,
            "cooling_tower": chiller.tower is not None,
        }
    return results, document


def _campaign_document(
    scenarios: Sequence[DemandScenario],
    results: dict,
    *,
    seed: int,
    n_machines: int,
    horizon: int,
    control_dt: float,
    sim_dt: float,
    capacity: float,
) -> dict:
    entry_rows = []
    scenario_rows = []
    dominance = []
    for scenario in scenarios:
        runs = results[scenario.name]
        controllers = {}
        for name in MPC_CONTROLLERS:
            run = runs[name]
            row = run.to_dict()
            row["energy_overhead_vs_oracle"] = run.overhead_vs(runs["oracle"])
            controllers[name] = row
            entry_rows.append(
                {"scenario": scenario.name, "controller": name, **row}
            )
        mpc_run = runs["mpc"]
        reactive_run = runs["reactive"]
        dominance.append(
            {
                "scenario": scenario.name,
                "flash_crowd": scenario.flash_crowd,
                "mpc_violation_seconds": mpc_run.violation_seconds,
                "reactive_violation_seconds":
                    reactive_run.violation_seconds,
                "mpc_energy_joules": mpc_run.energy_joules,
                "reactive_energy_joules": reactive_run.energy_joules,
                "dominates": bool(
                    mpc_run.violation_seconds
                    < reactive_run.violation_seconds
                    and mpc_run.energy_joules
                    <= reactive_run.energy_joules
                ),
            }
        )
        scenario_rows.append(
            {
                "name": scenario.name,
                "description": scenario.description,
                "flash_crowd": scenario.flash_crowd,
                "duration": mpc_run.duration,
                "peak_load_fraction": (
                    scenario.trace.peak(dt=control_dt) / capacity
                    if capacity > 0.0
                    else None
                ),
                "controllers": controllers,
            }
        )
    return {
        "schema": 1,
        "kind": "mpc",
        "seed": seed,
        "machines": n_machines,
        "horizon": horizon,
        "control_dt": control_dt,
        "sim_dt": sim_dt,
        "entries": entry_rows,
        "scenarios": scenario_rows,
        "dominance": dominance,
    }
