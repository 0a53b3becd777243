"""Degraded-mode control: ride through faults instead of violating.

:class:`ResilientController` extends the runtime controller with three
defensive behaviors, all observable through ``fault.*`` / ``recovery.*``
events and ``resilience.*`` metrics:

**Retry-with-shedding and backoff on infeasible replans.**  Where the
base controller keeps its previous plan (or raises) when the optimizer
reports infeasibility, the resilient one retries at geometrically shed
load targets (``shed_factor`` per step) until a feasible plan exists,
and — if every retry fails — backs off exponentially
(``backoff_initial`` seconds, doubling per consecutive failure, capped
at ``min_dwell``) before burning optimizer time again.

**Sensor quarantine.**  Per-machine CPU temperature readings flow in
through :meth:`observe_readings`; a
:class:`~repro.faults.detectors.SensorQuarantine` screens them and the
controller trusts only the plausible subset.  If *every* sensor is
quarantined the controller is blind and treats that as an emergency.

**Safe mode with hysteresis.**  When the hottest trusted reading comes
within ``safe_margin`` K of ``T_max`` (or the controller goes blind),
the controller abandons optimality: it sheds load to a fraction of the
surviving capacity (``initial_shed``, escalating by ``shed_factor``
while the overheat persists) using the optimizer's selection machinery
over the surviving machine set, and commands the coldest achievable
supply temperature (``T_ac`` at the cooler's lower limit) instead of
the cost-optimal set point.  Safe mode exits only after
``recovery_hold`` consecutive observations with at least
``recovery_margin`` K of headroom — ``recovery_margin > safe_margin``
gives the exit hysteresis — after which a fresh optimal plan is built.

The thermal headroom of the hottest trusted sensor is published as the
``resilience.headroom_k`` gauge so the observability watchdogs can see
the controller's own safety assessment.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

from repro import obs
from repro.core.controller import RuntimeController
from repro.core.optimizer import JointOptimizer, OptimizationResult
from repro.errors import ConfigurationError, InfeasibleError
from repro.faults.detectors import SensorQuarantine


class ResilientController(RuntimeController):
    """A runtime controller that degrades gracefully under faults."""

    def __init__(
        self,
        optimizer: JointOptimizer,
        hysteresis: float = 0.15,
        min_dwell: float = 600.0,
        headroom: Optional[float] = None,
        *,
        quarantine: Optional[SensorQuarantine] = None,
        thermal_guard: float = 1.5,
        safe_margin: float = 1.0,
        recovery_margin: float = 3.0,
        recovery_hold: int = 3,
        initial_shed: float = 0.6,
        shed_factor: float = 0.7,
        max_shed_retries: int = 5,
        backoff_initial: float = 60.0,
    ) -> None:
        super().__init__(
            optimizer,
            hysteresis=hysteresis,
            min_dwell=min_dwell,
            headroom=headroom,
        )
        if safe_margin < 0.0:
            raise ConfigurationError(
                f"safe_margin must be non-negative, got {safe_margin}"
            )
        if recovery_margin <= safe_margin:
            raise ConfigurationError(
                f"recovery_margin ({recovery_margin}) must exceed "
                f"safe_margin ({safe_margin}) to give exit hysteresis"
            )
        if recovery_hold < 1:
            raise ConfigurationError(
                f"recovery_hold must be at least 1, got {recovery_hold}"
            )
        if not 0.0 < initial_shed <= 1.0 or not 0.0 < shed_factor < 1.0:
            raise ConfigurationError(
                "initial_shed must be in (0, 1] and shed_factor in (0, 1)"
            )
        if max_shed_retries < 1 or backoff_initial <= 0.0:
            raise ConfigurationError(
                "max_shed_retries must be >= 1 and backoff_initial positive"
            )
        if thermal_guard < 0.0:
            raise ConfigurationError(
                f"thermal_guard must be non-negative, got {thermal_guard}"
            )
        if thermal_guard > 0.0:
            # The paper's optimum parks every CPU *exactly* at T_max —
            # zero slack for disturbances.  Plan against a slightly
            # derated belief so detection leads violation by a usable
            # margin; safe_margin/recovery_margin stay relative to the
            # true limit.
            derated = replace(
                optimizer.model, t_max=optimizer.model.t_max - thermal_guard
            )
            self.true_t_max = optimizer.model.t_max
            optimizer = optimizer.with_model(derated)
        else:
            self.true_t_max = optimizer.model.t_max
        self.thermal_guard = thermal_guard
        self.optimizer = optimizer
        self.quarantine = quarantine or SensorQuarantine(
            optimizer.model.node_count
        )
        self.safe_margin = safe_margin
        self.recovery_margin = recovery_margin
        self.recovery_hold = recovery_hold
        self.initial_shed = initial_shed
        self.shed_factor = shed_factor
        self.max_shed_retries = max_shed_retries
        self.backoff_initial = backoff_initial
        self.safe_mode: bool = False
        self.safe_mode_entries: int = 0
        self.shed_replans: int = 0
        self._safe_fraction: float = initial_shed
        self._calm_streak: int = 0
        self._infeasible_streak: int = 0
        self._backoff_until: float = -math.inf
        self._last_offered: Optional[float] = None
        self._hottest: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Sensor path
    # ------------------------------------------------------------------ #

    def observe_readings(
        self, time: float, readings
    ) -> Optional[OptimizationResult]:
        """Feed one vector of per-machine CPU temperature readings.

        Runs the quarantine detectors, updates the headroom gauge, and
        drives the safe-mode state machine.  Returns a new plan if the
        reading forced one (safe-mode entry/escalation or exit), else
        ``None``.
        """
        self.quarantine.update(time, readings)
        mask = self.quarantine.plausible_mask()
        hottest: Optional[float] = None
        for i, value in enumerate(readings):
            if mask[i] and math.isfinite(value):
                hottest = value if hottest is None else max(hottest, value)
        self._hottest = hottest
        t_max = self.true_t_max
        if hottest is not None:
            obs.set_gauge("resilience.headroom_k", t_max - hottest)
        blind = hottest is None
        if not self.safe_mode:
            if blind or hottest >= t_max - self.safe_margin:
                return self._enter_safe_mode(time, hottest, blind=blind)
            return None
        # In safe mode: look for the hysteretic exit, escalate if still hot.
        if not blind and hottest <= t_max - self.recovery_margin:
            self._calm_streak += 1
            if self._calm_streak >= self.recovery_hold:
                return self._exit_safe_mode(time)
            return None
        self._calm_streak = 0
        if blind or hottest >= t_max - self.safe_margin:
            return self._escalate_safe_mode(time, hottest)
        return None

    @property
    def hottest_trusted(self) -> Optional[float]:
        """Hottest plausible reading from the last observation, K."""
        return self._hottest

    # ------------------------------------------------------------------ #
    # Load path
    # ------------------------------------------------------------------ #

    def observe(self, time: float, load: float) -> Optional[OptimizationResult]:
        self._last_offered = load
        if self.safe_mode:
            # The safe plan outranks load tracking; just keep the fault
            # state synced and hold position.
            if self.fault_injector is not None:
                self.fault_injector.advance(time)
                self._sync_injector_faults()
                if self._failure_pending:
                    return self._safe_replan(time, "safe mode re-plan")
            return None
        try:
            return super().observe(time, load)
        except InfeasibleError:
            # The offered load exceeds the surviving capacity outright:
            # serve what the hardware can carry and shed the rest.
            capacity = self.surviving_capacity()
            if load <= capacity + 1e-9:
                raise  # a different infeasibility; let it surface
            obs.count("resilience.load_shed")
            obs.add_event(
                "fault.load_shed",
                time=time,
                offered_load=load,
                target=capacity,
                shed=load - capacity,
            )
            self.shed_replans += 1
            return self._replan(
                time, load, capacity, "load exceeds surviving capacity"
            )

    def _replan(
        self, time: float, load: float, target: float, reason: str
    ) -> Optional[OptimizationResult]:
        if time < self._backoff_until:
            obs.count("resilience.backoff_skips")
            obs.add_event(
                "fault.replan_backoff",
                time=time,
                resume_at=self._backoff_until,
                reason=reason,
            )
            return None
        try:
            result = self._solve_plan(time, load, target, reason)
        except InfeasibleError as exc:
            self._note_infeasible(exc, time, load)
            return self._shed_and_retry(time, load, target, reason, exc)
        self._infeasible_streak = 0
        self._accept_plan(time, load, target, result, reason)
        return result

    def _shed_and_retry(
        self,
        time: float,
        load: float,
        target: float,
        reason: str,
        exc: InfeasibleError,
    ) -> Optional[OptimizationResult]:
        for attempt in range(1, self.max_shed_retries + 1):
            shed_target = target * self.shed_factor ** attempt
            if shed_target <= 1e-6:
                break
            try:
                result = self._solve_plan(
                    time, load, shed_target,
                    f"{reason} (shed attempt {attempt})",
                )
            except InfeasibleError:
                continue
            self._infeasible_streak = 0
            self.shed_replans += 1
            obs.count("resilience.load_shed")
            obs.add_event(
                "fault.load_shed",
                time=time,
                offered_load=load,
                target=shed_target,
                shed=max(0.0, load - shed_target),
                attempt=attempt,
            )
            self._accept_plan(
                time, load, shed_target, result,
                f"{reason} (shed to {shed_target:.1f})",
            )
            return result
        # Nothing feasible at any shed level: back off exponentially so
        # repeated observations stop burning optimizer time, and fall
        # into safe mode if there is no plan to hold.
        self._infeasible_streak += 1
        delay = min(
            self.min_dwell if self.min_dwell > 0.0 else self.backoff_initial,
            self.backoff_initial * 2.0 ** (self._infeasible_streak - 1),
        )
        self._backoff_until = time + delay
        obs.count("resilience.replan_backoffs")
        obs.add_event(
            "fault.replan_backoff",
            time=time,
            resume_at=self._backoff_until,
            streak=self._infeasible_streak,
            reason=reason,
        )
        if self._plan is None and not self.safe_mode:
            return self._enter_safe_mode(time, self._hottest, blind=True)
        return None

    # ------------------------------------------------------------------ #
    # Safe mode
    # ------------------------------------------------------------------ #

    def _enter_safe_mode(
        self, time: float, hottest: Optional[float], blind: bool = False
    ) -> Optional[OptimizationResult]:
        self.safe_mode = True
        self.safe_mode_entries += 1
        self._calm_streak = 0
        self._safe_fraction = self.initial_shed
        obs.count("resilience.safe_mode_entries")
        obs.add_event(
            "fault.safe_mode_entered",
            time=time,
            blind=blind,
            **({} if hottest is None else {"hottest": hottest}),
        )
        return self._safe_replan(time, "safe mode entry")

    def _escalate_safe_mode(
        self, time: float, hottest: Optional[float]
    ) -> Optional[OptimizationResult]:
        self._safe_fraction = max(
            self._safe_fraction * self.shed_factor, 0.02
        )
        obs.count("resilience.safe_mode_escalations")
        obs.add_event(
            "fault.safe_mode_escalated",
            time=time,
            fraction=self._safe_fraction,
            **({} if hottest is None else {"hottest": hottest}),
        )
        return self._safe_replan(time, "safe mode escalation")

    def _exit_safe_mode(self, time: float) -> Optional[OptimizationResult]:
        self.safe_mode = False
        self._calm_streak = 0
        obs.count("resilience.safe_mode_exits")
        obs.add_event("recovery.safe_mode_exited", time=time)
        if self._last_offered is None:
            self._plan = None  # force a fresh plan at the next observation
            return None
        load = self._last_offered
        capacity = self.surviving_capacity()
        target = min(max(load * self.headroom, 1e-6), capacity)
        return self._replan(time, load, target, "safe mode recovery")

    def _safe_replan(
        self, time: float, reason: str
    ) -> Optional[OptimizationResult]:
        """Build and adopt the safe-mode fallback plan: shed load to a
        fraction of the surviving capacity and command the coldest
        achievable supply air."""
        capacity = self.surviving_capacity()
        offered = self._last_offered if self._last_offered is not None else 0.0
        fraction = self._safe_fraction
        result = None
        target = 0.0
        while fraction >= 0.02:
            target = max(min(capacity, offered) * fraction, 1e-6)
            try:
                result = self._solve_plan(time, offered, target, reason)
                break
            except InfeasibleError:
                fraction *= self.shed_factor
        if result is None:
            # Nothing serveable at all; park the room with everything off
            # by keeping no plan (the harness idles the machines).
            self._plan = None
            obs.count("resilience.safe_mode_infeasible")
            return None
        self._safe_fraction = fraction
        safe = self._coldest_variant(result)
        self._accept_plan(time, offered, target, safe, reason)
        return safe

    def _coldest_variant(self, result: OptimizationResult) -> OptimizationResult:
        """The same allocation, but commanding the coldest supply air the
        cooler can produce (hardware protection beats energy cost)."""
        model = self.optimizer.model
        server_power = sum(
            model.power.power(result.loads[i]) for i in result.on_ids
        )
        t_ac = model.cooler.t_ac_min
        t_sp = model.cooler.set_point_for(t_ac, server_power)
        return replace(result, t_ac=t_ac, t_sp=t_sp)

    def _accept_plan(self, time, load, target, result, reason) -> None:
        super()._accept_plan(time, load, target, result, reason)
        self._backoff_until = -math.inf
