"""repro.faults — deterministic fault injection and degraded-mode control.

The paper's optimum is deliberately brittle: at the unclamped solution
every powered-on CPU sits *exactly* at ``T_max`` (Eqs. 18-22), so any
machine crash, stuck sensor, or cooling derating immediately threatens
the thermal constraint.  This package makes those disturbances
first-class and reproducible:

- :mod:`repro.faults.scenario` — declarative, seeded fault schedules
  (machine crash/repair, sensor dropout/stuck/bias/noise, AC capacity
  derating and set-point drift, load surges) that serialize to JSON and
  replay bit-identically from ``(spec, seed)``;
- :mod:`repro.faults.injection` — the :class:`FaultInjector` runtime
  that wires a scenario into the thermal simulation stepper, the sensor
  path, and :meth:`~repro.core.controller.RuntimeController.observe`
  — at zero behavioral cost when nothing is attached;
- :mod:`repro.faults.detectors` — model-free sensor plausibility
  checks (stuck-value, rate-of-change, dropout) behind
  :class:`SensorQuarantine`;
- :mod:`repro.faults.resilience` — :class:`ResilientController`, a
  degraded-mode extension of the runtime controller: retry-with-shedding
  on infeasible replans, sensor quarantine, and a safe-mode fallback
  (drop ``T_ac``, shed load) with hysteresis on recovery;
- :mod:`repro.faults.loop` — :func:`~repro.faults.loop.march`, the one
  closed-loop time march the fault and MPC campaigns both score;
- :mod:`repro.faults.campaign` — the ``repro faults`` campaign runner
  that sweeps scenarios over naive / resilient / oracle controllers and
  emits schema-validated ``benchmarks/results/resilience.json``.

See ``docs/resilience.md`` for the scenario spec format, the detector
thresholds, and the safe-mode semantics.
"""

from repro.faults.campaign import (
    CampaignResult,
    ClosedLoopResult,
    reference_scenarios,
    run_campaign,
    run_closed_loop,
)
from repro.faults.detectors import (
    QuarantineDecision,
    SensorQuarantine,
)
from repro.faults.injection import FaultInjector
from repro.faults.scenario import (
    FAULT_KINDS,
    FaultEvent,
    FaultScenario,
    FaultSpec,
    compose,
    events_to_jsonl,
)
from repro.faults.resilience import ResilientController

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultScenario",
    "FaultSpec",
    "compose",
    "events_to_jsonl",
    "FaultInjector",
    "QuarantineDecision",
    "SensorQuarantine",
    "ResilientController",
    "CampaignResult",
    "ClosedLoopResult",
    "reference_scenarios",
    "run_campaign",
    "run_closed_loop",
]
