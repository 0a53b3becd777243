"""Adaptive runtime controller (extension beyond the paper).

The paper's solution is open-loop for a *steady* total load; it notes
that dynamic workloads "entail changes in server temperature" and defers
them.  This module adds the natural operational wrapper: a controller
that watches the offered load and re-runs the joint optimization when it
drifts, with two guards that matter in practice:

- **Hysteresis** — re-optimize only when the load leaves a relative band
  around the last planned load, so sensor-level jitter doesn't cause
  churn;
- **Minimum dwell** — never reconfigure more often than the room's
  thermal settling time (machines that were just booted are still
  heating up, and the steady-state model is only valid once settled).

To stay safe during transients, the controller plans for the *upper
edge* of the hysteresis band (``headroom`` factor) rather than for the
instantaneous load, so a load rise within the band never exceeds the
planned capacity or the temperature envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.obs import watchdog as _watchdog
from repro.core.optimizer import JointOptimizer, OptimizationResult
from repro.errors import ConfigurationError, InfeasibleError


@dataclass(frozen=True)
class ControllerEvent:
    """One reconfiguration performed by the controller."""

    time: float
    offered_load: float
    planned_load: float
    machines_on: int
    t_sp: float
    reason: str


class RuntimeController:
    """Closed-loop wrapper around :class:`JointOptimizer`.

    Parameters
    ----------
    optimizer:
        The joint optimizer (owns the fitted model and the consolidation
        index, so repeated re-planning stays cheap).
    hysteresis:
        Relative band around the planned load within which no
        re-optimization happens (e.g. 0.15 = ±15%).
    min_dwell:
        Minimum seconds between reconfigurations.
    headroom:
        Factor applied to the observed load when planning, so the plan
        covers the top of the hysteresis band.  Must be at least
        ``1 + hysteresis`` to guarantee in-band rises stay feasible.
    """

    def __init__(
        self,
        optimizer: JointOptimizer,
        hysteresis: float = 0.15,
        min_dwell: float = 600.0,
        headroom: Optional[float] = None,
    ) -> None:
        if not 0.0 <= hysteresis < 1.0:
            raise ConfigurationError(
                f"hysteresis must be in [0, 1), got {hysteresis}"
            )
        if min_dwell < 0.0:
            raise ConfigurationError(
                f"min_dwell must be non-negative, got {min_dwell}"
            )
        if headroom is None:
            headroom = 1.0 + hysteresis
        if headroom < 1.0 + hysteresis - 1e-12:
            raise ConfigurationError(
                f"headroom {headroom} cannot cover the hysteresis band "
                f"(needs >= {1.0 + hysteresis})"
            )
        self.optimizer = optimizer
        self.hysteresis = hysteresis
        self.min_dwell = min_dwell
        self.headroom = headroom
        self._plan: Optional[OptimizationResult] = None
        self._planned_for: float = 0.0
        self._last_change: float = -float("inf")
        self.events: list[ControllerEvent] = []
        self.reconfigurations: int = 0
        self.suppressed: int = 0
        self.failed: set[int] = set()
        # A failure reported since the last accepted plan forces the next
        # observation to re-plan even inside the dwell window.
        self._failure_pending: bool = False
        # Optional repro.faults.FaultInjector; observe() advances it and
        # syncs machine_crash state into mark_failed/mark_repaired.
        self.fault_injector = None
        self._injector_failed: frozenset = frozenset()

    @property
    def plan(self) -> Optional[OptimizationResult]:
        """The currently active optimization result (None before start)."""
        return self._plan

    def observe_temperature(
        self,
        time: float,
        hottest_cpu: float,
        t_max: float,
        margin: float = 1.0,
    ) -> Optional[OptimizationResult]:
        """Thermal watchdog: react to a measured CPU temperature.

        The model-based plan should keep every CPU below ``t_max``, but
        models drift (see :mod:`repro.profiling.online`).  If the hottest
        measured CPU comes within ``margin`` kelvin of the limit, the
        watchdog derates the model's ``T_max`` belief by the observed
        shortfall-plus-margin and re-plans immediately (bypassing dwell —
        hardware protection beats churn protection).

        Returns the emergency plan if one was made, else ``None``.
        """
        if margin < 0.0:
            raise ConfigurationError(
                f"margin must be non-negative, got {margin}"
            )
        overshoot = hottest_cpu - (t_max - margin)
        if overshoot <= 0.0 or self._plan is None:
            return None
        from dataclasses import replace

        model = self.optimizer.model
        derated = replace(model, t_max=model.t_max - overshoot - margin)
        # Rebuild the optimizer around the derated belief; subsequent
        # ordinary observations keep using it until a re-profile.
        self.optimizer = self.optimizer.with_model(derated)
        obs.count("controller.watchdog_trips")
        load = self._planned_for
        result = self._solve_plan(time, load, load, "thermal watchdog")
        self._accept_plan(
            time, load, load, result,
            f"thermal watchdog: CPU at {hottest_cpu:.2f} K",
        )
        return result

    def mark_failed(self, machine_id: int) -> None:
        """Record a hardware failure; the next observation re-plans
        around it (immediately, bypassing both dwell and hysteresis —
        capacity may be gone, and a suppressed-replan window must not
        swallow the alert)."""
        if not 0 <= machine_id < self.optimizer.model.node_count:
            raise ConfigurationError(
                f"unknown machine id {machine_id}"
            )
        self.failed.add(machine_id)
        self._failure_pending = True
        if self._plan is not None and machine_id in self._plan.on_ids:
            self._plan = None  # the active plan uses dead hardware

    def mark_repaired(self, machine_id: int) -> None:
        """Return a machine to service (it becomes eligible at the next
        re-plan; no forced reconfiguration)."""
        self.failed.discard(machine_id)

    def attach_fault_injector(self, injector) -> None:
        """Subscribe to a :class:`repro.faults.FaultInjector`: every
        observation advances the injector's replay and mirrors its
        ``machine_crash`` state through :meth:`mark_failed` /
        :meth:`mark_repaired` (a hardware health feed)."""
        self.fault_injector = injector
        self._injector_failed = frozenset()
        if injector is not None:
            self._sync_injector_faults()

    def _sync_injector_faults(self) -> None:
        current = self.fault_injector.failed_machines
        for machine in sorted(current - self._injector_failed):
            self.mark_failed(machine)
        for machine in sorted(self._injector_failed - current):
            self.mark_repaired(machine)
        self._injector_failed = current

    def _needs_replan(self, load: float) -> Optional[str]:
        if self._plan is None:
            return (
                "initial plan"
                if not self.events
                else "active plan lost a machine"
            )
        if self._failure_pending:
            # A machine failed since the last accepted plan (even one the
            # plan wasn't using — the feasible set shrank either way).
            return "hardware failure"
        if load > self._planned_for:
            # The plan (which already includes headroom) no longer covers
            # the offered load.
            return "load above planned band"
        if load * self.headroom < self._planned_for * (1.0 - self.hysteresis):
            # The load fell far enough that a fresh plan would be
            # meaningfully cheaper.
            return "load well below planned band"
        return None

    def observe(self, time: float, load: float) -> Optional[OptimizationResult]:
        """Feed one load observation; returns a new plan if one was made.

        Raises
        ------
        InfeasibleError
            If the observed load (with headroom capped at cluster
            capacity) cannot be served at all.
        """
        if load < 0.0:
            raise ConfigurationError(f"load must be non-negative, got {load}")
        if self.fault_injector is not None:
            self.fault_injector.advance(time)
            self._sync_injector_faults()
        reason = self._needs_replan(load)
        if reason is None:
            return None
        dwell_ok = (time - self._last_change) >= self.min_dwell
        urgent = (
            self._plan is None
            or load > self._planned_for
            or self._failure_pending
        )
        if not dwell_ok and not urgent:
            # Scale-down within dwell: keep the old (over-provisioned but
            # safe) plan rather than flapping.
            self.suppressed += 1
            obs.count("controller.suppressed")
            obs.add_event(
                "replan.suppressed",
                time=time,
                offered_load=load,
                reason=reason,
                dwell_remaining=self.min_dwell - (time - self._last_change),
            )
            return None
        capacity = self.surviving_capacity()
        target = min(max(load * self.headroom, 1e-6), capacity)
        if load > capacity + 1e-9:
            raise InfeasibleError(
                f"offered load {load:.1f} exceeds surviving capacity "
                f"{capacity:.1f}"
            )
        return self._replan(time, load, target, reason)

    def surviving_capacity(self) -> float:
        """Total task capacity of machines not marked failed."""
        return sum(
            c
            for i, c in enumerate(self.optimizer.model.capacities)
            if i not in self.failed
        )

    def _replan(
        self, time: float, load: float, target: float, reason: str
    ) -> Optional[OptimizationResult]:
        """Solve for ``target`` and adopt the plan; on infeasibility keep
        the previous plan (or raise if there is none).  Subclasses
        override this seam to add degraded-mode strategies."""
        try:
            result = self._solve_plan(time, load, target, reason)
        except InfeasibleError as exc:
            self._note_infeasible(exc, time, load)
            if self._plan is None:
                raise
            # Keep the previous (still-valid) plan active rather than
            # leaving the room uncontrolled.
            return None
        self._accept_plan(time, load, target, result, reason)
        return result

    def _solve_plan(
        self, time: float, load: float, target: float, reason: str
    ) -> OptimizationResult:
        """One observed solve attempt, always excluding failed machines
        (a failed machine can never reappear in a plan until repaired)."""
        with obs.timed("controller/replan"):
            obs.set_span_attributes(
                time=time, offered_load=load, planned_load=target,
                reason=reason,
            )
            return self.optimizer.solve(target, exclude=sorted(self.failed))

    def _note_infeasible(
        self, exc: InfeasibleError, time: float, load: float
    ) -> None:
        obs.count("controller.replan_infeasible")
        wd = _watchdog._active
        if wd is not None:
            wd.notify_infeasible(str(exc), time=time, offered_load=load)
        else:
            obs.add_event(
                "constraint.violation",
                monitor="replan",
                metric="replan.feasible",
                message=str(exc),
                time=time,
                offered_load=load,
            )

    def _accept_plan(
        self,
        time: float,
        load: float,
        target: float,
        result: OptimizationResult,
        reason: str,
    ) -> None:
        wd = _watchdog._active
        if wd is not None:
            wd.check_replan(self, result, load)
        self._plan = result
        self._planned_for = target
        self._last_change = time
        self._failure_pending = False
        self.reconfigurations += 1
        obs.count("controller.reconfigurations")
        self.events.append(
            ControllerEvent(
                time=time,
                offered_load=load,
                planned_load=target,
                machines_on=len(result.on_ids),
                t_sp=result.t_sp,
                reason=reason,
            )
        )

    def run_trace(self, trace, dt: float = 60.0) -> list[ControllerEvent]:
        """Drive the controller over a :class:`~repro.workload.traces.LoadTrace`.

        Returns the reconfiguration events (also kept on ``self.events``).
        """
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        with obs.record_run(
            "controller.trace",
            inputs={"duration": trace.duration, "dt": dt},
        ) as rec:
            t = 0.0
            while t <= trace.duration:
                self.observe(t, trace.load_at(t))
                t += dt
            if rec is not None:
                rec.outcome.update(
                    reconfigurations=self.reconfigurations,
                    suppressed=self.suppressed,
                )
        return list(self.events)
