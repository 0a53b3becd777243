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
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import obs
from repro.core.controller import RuntimeController
from repro.errors import ConfigurationError
from repro.faults.injection import FaultInjector
from repro.faults.loop import (
    LoopResult,
    _OracleController,
    follow_plan,
    march,
)
from repro.faults.resilience import ResilientController
from repro.faults.scenario import FaultEvent, FaultScenario, FaultSpec

#: Controllers every campaign runs, in report order.
CONTROLLERS: tuple[str, ...] = ("naive", "resilient", "oracle")


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
class ClosedLoopResult(LoopResult):
    """Scored outcome of one controller riding one fault scenario."""

    violation_seconds_after_grace: float
    recovery_seconds: Optional[float]
    safe_mode_entries: int
    sensors_quarantined: int
    fault_events: tuple[FaultEvent, ...] = field(default=())


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
    controller_name: str = "controller",
) -> ClosedLoopResult:
    """Drive one controller through one fault scenario, ground truth on.

    The machines serve the plan's allocation at a steady ``base_load``
    (:func:`~repro.faults.loop.march` with
    :func:`~repro.faults.loop.follow_plan`), and the run is scored per
    control interval: an interval violates when its hottest live CPU
    ends above ``T_max``, and a violation within ``grace_steps``
    intervals of a fault onset is excused from the graced count.
    ``attach_injector`` subscribes the controller to the hardware-health
    feed; a plain controller without it is the fault-blind naive
    baseline.
    """
    if grace_steps < 0:
        raise ConfigurationError(
            f"grace_steps must be non-negative, got {grace_steps}"
        )
    total = duration if duration is not None else scenario.duration
    t_max = testbed.config.t_max
    with obs.record_run(
        "faults.closed_loop",
        inputs={
            "scenario": scenario.name,
            "controller": controller_name,
            "duration": total,
        },
    ) as rec:
        run = march(
            testbed, controller, scenario, lambda t: base_load, follow_plan,
            duration=total, injector=injector, control_dt=control_dt,
            sim_dt=sim_dt, attach_injector=attach_injector,
        )
        grace = grace_steps * control_dt + 1e-9
        violation = 0.0
        violation_graced = 0.0
        offered_ts = 0.0
        served_ts = 0.0
        max_t = -math.inf
        last_violation_end: Optional[float] = None
        for interval in run.intervals:
            last = interval.substeps[-1]
            max_t = max(max_t, last.hottest)
            interval_end = interval.time + control_dt
            if last.hottest > t_max + 1e-6:
                violation += control_dt
                last_violation_end = interval_end
                excused = any(
                    event.phase == "begin"
                    and interval_end - event.time <= grace
                    for event in run.events[:interval.events_seen]
                )
                if not excused:
                    violation_graced += control_dt
            served = 0.0
            for load in last.loads:  # in machine order, as the plan lists
                served += float(load)
            offered_ts += interval.offered * control_dt
            served_ts += min(served, interval.offered) * control_dt
        first_fault = next(
            (e.time for e in run.events if e.phase == "begin"), None
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
            energy_joules=run.energy_joules,
            offered_task_seconds=offered_ts,
            served_task_seconds=served_ts,
            reconfigurations=int(getattr(controller, "reconfigurations", 0)),
            suppressed=int(getattr(controller, "suppressed", 0)),
            safe_mode_entries=int(getattr(controller, "safe_mode_entries", 0)),
            sensors_quarantined=sum(
                d.action == "quarantine" for d in getattr(
                    getattr(controller, "quarantine", None), "decisions", ()
                )
            ),
            max_t_cpu=max_t,
            fault_events=run.events,
            server_energy_joules=run.server_energy_joules,
        )
        if rec is not None:
            rec.outcome.update(
                violation_seconds=violation,
                energy_joules=run.energy_joules,
                fault_transitions=len(run.events),
            )
    return result


# --------------------------------------------------------------------- #
# Campaign sweep and document
# --------------------------------------------------------------------- #


def _build_controller(name: str, context, injector: FaultInjector):
    """(controller, attach_injector)."""
    if name == "naive":
        return RuntimeController(context.optimizer), False
    if name == "resilient":
        return ResilientController(context.optimizer), True
    if name == "oracle":
        return (
            _OracleController(context.testbed, context.optimizer, injector),
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

        context = default_context(seed=seed, n_machines=n_machines)
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
            controller, attach = _build_controller(
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
                controller_name=name,
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
        controllers = {}
        for name in CONTROLLERS:
            run = result.runs[name]
            row = run.to_dict()
            row["energy_overhead_vs_oracle"] = run.overhead_vs(
                result.runs["oracle"]
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
