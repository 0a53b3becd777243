"""Runtime fault injection: replay a scenario into the live system.

A :class:`FaultInjector` owns the replay cursor over one
:class:`~repro.faults.scenario.FaultScenario`: call :meth:`advance` with
a monotonically non-decreasing clock and it fires each begin/end
transition exactly once, records a
:class:`~repro.faults.scenario.FaultEvent`, and emits ``fault.*`` /
``recovery.*`` observability events and counters.

The injector is attached at three seams, each a no-op when nothing is
attached (the instrumented code pays one ``is None`` check):

- **thermal simulation** — :meth:`attach_simulation` hooks the stepper:
  each :meth:`~repro.thermal.simulation.RoomSimulation.step` advances
  the injector to simulation time and active ``ac_derate`` /
  ``ac_setpoint_drift`` faults manipulate the cooling unit (capacity
  scaling, commanded-vs-effective set point);
- **sensor path** — :meth:`filter_readings` corrupts an array of
  per-machine temperature readings (stuck / bias / noise / dropout);
- **controller** — :meth:`RuntimeController.attach_fault_injector
  <repro.core.controller.RuntimeController.attach_fault_injector>`
  makes ``observe`` advance the injector and sync ``machine_crash``
  state into ``mark_failed`` / ``mark_repaired`` (hardware alerts).

Determinism: the injector's only stochastic behavior (``sensor_noise``)
draws from per-fault generators derived from the scenario seed, so two
injectors replaying the same scenario through the same call sequence
produce bit-identical corruption and byte-identical event JSONL
(:meth:`events_jsonl`).  :meth:`reset` rewinds everything, including the
noise streams.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.faults.scenario import (
    FaultEvent,
    FaultScenario,
    events_to_jsonl,
)


class FaultInjector:
    """Replays one scenario; holds all runtime fault state."""

    def __init__(self, scenario: FaultScenario) -> None:
        self.scenario = scenario
        self._cooler = None
        self._nominal_q_max: Optional[float] = None
        self._commanded_sp: Optional[float] = None
        self.reset()

    # ------------------------------------------------------------------ #
    # Replay control
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Rewind the replay: cursor, events, state, and noise streams."""
        self._transitions = self.scenario.transitions()
        self._cursor = 0
        self._clock = -math.inf
        self.events: list[FaultEvent] = []
        self._active: set[int] = set()
        self._failed: set[int] = set()
        self._rngs = {
            i: self.scenario.rng_for(i)
            for i, spec in enumerate(self.scenario.faults)
            if spec.kind == "sensor_noise"
        }
        #: fault_index -> frozen reading for value-less sensor_stuck.
        self._held: dict[int, float] = {}
        #: machine -> last uncorrupted reading seen by filter_readings.
        self._last_raw: dict[int, float] = {}
        if self._cooler is not None:
            self._apply_cooler_state()

    def advance(self, time: float) -> list[FaultEvent]:
        """Fire every transition scheduled at or before ``time``.

        Safe to call from several hook sites with interleaved clocks
        (simulation substeps, controller observations): each transition
        fires exactly once, in the scenario's canonical order.
        """
        fired: list[FaultEvent] = []
        while (
            self._cursor < len(self._transitions)
            and self._transitions[self._cursor][0] <= time
        ):
            t, phase, idx = self._transitions[self._cursor]
            self._cursor += 1
            fired.append(self._fire(t, phase, idx))
        self._clock = max(self._clock, time)
        if fired and self._cooler is not None:
            self._apply_cooler_state()
        return fired

    def next_transition_time(self) -> Optional[float]:
        """When the next unfired transition is scheduled (the first
        :meth:`advance` to reach it fires it), ``None`` once the replay
        is exhausted.  Read-only: the cursor does not move."""
        if self._cursor < len(self._transitions):
            return self._transitions[self._cursor][0]
        return None

    def _fire(self, t: float, phase: str, idx: int) -> FaultEvent:
        spec = self.scenario.faults[idx]
        if phase == "begin":
            self._active.add(idx)
            if spec.kind == "machine_crash":
                self._failed.add(spec.machine)
        else:
            self._active.discard(idx)
            self._held.pop(idx, None)
            if spec.kind == "machine_crash":
                # Repaired only if no other active crash targets it.
                still_down = any(
                    self.scenario.faults[j].kind == "machine_crash"
                    and self.scenario.faults[j].machine == spec.machine
                    for j in self._active
                )
                if not still_down:
                    self._failed.discard(spec.machine)
        detail: dict = {}
        if spec.magnitude is not None:
            detail["magnitude"] = spec.magnitude
        if spec.value is not None:
            detail["value"] = spec.value
        event = FaultEvent(
            time=t,
            kind=spec.kind,
            phase=phase,
            fault_index=idx,
            machine=spec.machine,
            detail=detail,
        )
        self.events.append(event)
        prefix = "fault" if phase == "begin" else "recovery"
        obs.count(f"faults.{phase}")
        obs.count(f"faults.{spec.kind}.{phase}")
        obs.add_event(
            f"{prefix}.{spec.kind}",
            time=t,
            phase=phase,
            fault_index=idx,
            **({"machine": spec.machine} if spec.machine is not None else {}),
        )
        return event

    # ------------------------------------------------------------------ #
    # State queries
    # ------------------------------------------------------------------ #

    @property
    def failed_machines(self) -> frozenset:
        """Machines currently crashed."""
        return frozenset(self._failed)

    @property
    def active_faults(self) -> list[int]:
        """Indexes of currently active fault windows, sorted."""
        return sorted(self._active)

    @property
    def derate_factor(self) -> float:
        """Product of active ``ac_derate`` magnitudes (1.0 = healthy)."""
        factor = 1.0
        for idx in self._active:
            spec = self.scenario.faults[idx]
            if spec.kind == "ac_derate":
                factor *= spec.magnitude
        return factor

    @property
    def set_point_offset(self) -> float:
        """Sum of active ``ac_setpoint_drift`` offsets, K."""
        return sum(
            self.scenario.faults[idx].magnitude
            for idx in self._active
            if self.scenario.faults[idx].kind == "ac_setpoint_drift"
        )

    def offered_load(self, load: float | np.ndarray) -> float | np.ndarray:
        """The world-level offered load after active surges: a float, or
        an array of loads, each scaled exactly as a float would be."""
        for idx in self._active:
            spec = self.scenario.faults[idx]
            if spec.kind == "load_surge":
                load = load * spec.magnitude
        return load

    def events_jsonl(self) -> str:
        """Canonical JSONL of every transition fired so far."""
        return events_to_jsonl(self.events)

    # ------------------------------------------------------------------ #
    # Sensor path
    # ------------------------------------------------------------------ #

    def filter_readings(self, time: float, readings) -> np.ndarray:
        """Corrupt an array of per-machine temperature readings.

        Applies active sensor faults in fault-index order (dropout wins
        over everything on the same machine).  Advances the replay to
        ``time`` first, so callers need not call :meth:`advance`
        themselves.  Returns a new array; the input is untouched.
        """
        self.advance(time)
        out = np.array(readings, dtype=float, copy=True)
        # Capture stuck-sensor holds before this call's raw values are
        # recorded: a sensor freezes at the last reading *before* onset
        # (falling back to the current raw on the very first call).
        for idx in sorted(self._active):
            spec = self.scenario.faults[idx]
            m = spec.machine
            if (
                spec.kind == "sensor_stuck"
                and spec.value is None
                and idx not in self._held
                and m is not None
                and m < out.size
            ):
                self._held[idx] = self._last_raw.get(m, float(out[m]))
        for i, value in enumerate(out):
            if math.isfinite(value):
                self._last_raw[i] = float(value)
        dropped: set[int] = set()
        for idx in sorted(self._active):
            spec = self.scenario.faults[idx]
            m = spec.machine
            if m is None or m >= out.size:
                continue
            if spec.kind == "sensor_dropout":
                dropped.add(m)
            elif spec.kind == "sensor_stuck":
                out[m] = (
                    spec.value
                    if spec.value is not None
                    else self._held[idx]
                )
            elif spec.kind == "sensor_bias":
                out[m] = out[m] + spec.magnitude
            elif spec.kind == "sensor_noise":
                out[m] = out[m] + self._rngs[idx].normal(0.0, spec.magnitude)
        for m in dropped:
            out[m] = math.nan
        return out

    # ------------------------------------------------------------------ #
    # Cooling-unit path
    # ------------------------------------------------------------------ #

    def attach_simulation(self, simulation) -> None:
        """Wire this injector into a running room simulation.

        Sets ``simulation.fault_injector`` (so each stepper call
        advances the replay) and takes over the cooling unit's actuator
        state for ``ac_derate`` / ``ac_setpoint_drift`` faults.
        """
        self.attach_cooler(simulation.cooler)
        simulation.fault_injector = self

    def attach_cooler(self, cooler) -> None:
        """Adopt a cooling unit: remember its nominal capacity and the
        commanded set point, then apply the current fault state."""
        self._cooler = cooler
        self._nominal_q_max = float(cooler.q_max)
        self._commanded_sp = float(cooler.set_point)
        self._apply_cooler_state()

    def command_set_point(self, set_point: float) -> float:
        """Record a commanded set point; the cooler gets it plus any
        active drift.  Returns the effective set point applied."""
        if self._cooler is None:
            raise ConfigurationError(
                "no cooling unit attached; call attach_simulation first"
            )
        self._commanded_sp = float(set_point)
        self._apply_cooler_state()
        return self._cooler.set_point

    def on_simulation_step(self, simulation) -> None:
        """Stepper hook: advance the replay to simulation time."""
        if self._cooler is None:
            self.attach_cooler(simulation.cooler)
        self.advance(simulation.time)

    def _apply_cooler_state(self) -> None:
        self._cooler.q_max = self._nominal_q_max * self.derate_factor
        if self._commanded_sp is not None:
            self._cooler.set_point = self._commanded_sp + self.set_point_offset

    def detach(self) -> None:
        """Restore the cooling unit's nominal actuator state."""
        if self._cooler is not None:
            self._cooler.q_max = self._nominal_q_max
            if self._commanded_sp is not None:
                self._cooler.set_point = self._commanded_sp
        self._cooler = None
        self._nominal_q_max = None
        self._commanded_sp = None
