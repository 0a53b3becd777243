"""Shared evaluation context for all figure reproductions.

Building the context is the expensive part (profiling campaign plus the
consolidation pre-processing), so it is memoized per configuration: every
bench in a session reuses the same profiled testbed, exactly as the
paper's experiments share one profiled rack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.model import SystemModel
from repro.core.optimizer import JointOptimizer
from repro.core.policies import Scenario, paper_scenarios, scenario_by_number
from repro.errors import ConfigurationError
from repro.profiling.campaign import ProfilingResult
from repro.testbed.experiment import ExperimentRecord, Testbed
from repro.testbed.rack import TestbedConfig, build_testbed

#: The load axis of the paper's Figs. 5-10: 10% to 100% of capacity.
DEFAULT_LOAD_FRACTIONS: tuple[float, ...] = tuple(
    round(0.1 * i, 2) for i in range(1, 11)
)


@dataclass(frozen=True)
class EvaluationContext:
    """A profiled testbed ready for policy evaluation."""

    testbed: Testbed
    profiling: ProfilingResult
    optimizer: JointOptimizer

    @property
    def model(self) -> SystemModel:
        """The fitted system model the policies operate on."""
        return self.profiling.system_model


_CONTEXT_CACHE: dict[tuple, EvaluationContext] = {}


def default_context(
    seed: int = 2012,
    n_machines: int = 20,
    config: Optional[TestbedConfig] = None,
) -> EvaluationContext:
    """Build (or fetch from cache) the standard evaluation context."""
    key = (seed, n_machines, config)
    if key not in _CONTEXT_CACHE:
        cfg = config or TestbedConfig(n_machines=n_machines)
        testbed = build_testbed(cfg, seed=seed)
        profiling = testbed.profile()
        optimizer = JointOptimizer(profiling.system_model)
        _CONTEXT_CACHE[key] = EvaluationContext(
            testbed=testbed, profiling=profiling, optimizer=optimizer
        )
    return _CONTEXT_CACHE[key]


def sweep_scenario(
    context: EvaluationContext,
    scenario: Scenario,
    load_fractions: Sequence[float] = DEFAULT_LOAD_FRACTIONS,
) -> list[ExperimentRecord]:
    """Evaluate one scenario across the load axis (ground-truth power)."""
    capacity = context.testbed.total_capacity
    decisions = []
    for fraction in load_fractions:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"load fraction must be in (0, 1], got {fraction}"
            )
        decisions.append(
            scenario.decide(
                context.model, fraction * capacity, optimizer=context.optimizer
            )
        )
    # One vectorized steady-state solve for the whole load axis
    # (bit-identical to per-decision evaluate calls).
    return context.testbed.evaluate_many(decisions)


def scenario_sweeps(
    context: EvaluationContext,
    scenarios: Sequence[Scenario],
    load_fractions: Sequence[float] = DEFAULT_LOAD_FRACTIONS,
) -> dict[str, list[ExperimentRecord]]:
    """Evaluate several scenarios; keys are the scenario names."""
    return {
        s.name: sweep_scenario(context, s, load_fractions) for s in scenarios
    }


def numbered_sweeps(
    context: EvaluationContext,
    numbers: Sequence[int],
    load_fractions: Sequence[float] = DEFAULT_LOAD_FRACTIONS,
) -> dict[str, list[ExperimentRecord]]:
    """Evaluate the given Fig. 4 scenario numbers."""
    return scenario_sweeps(
        context,
        [scenario_by_number(n) for n in numbers],
        load_fractions,
    )


def all_paper_sweeps(
    context: EvaluationContext,
    load_fractions: Sequence[float] = DEFAULT_LOAD_FRACTIONS,
) -> dict[str, list[ExperimentRecord]]:
    """Evaluate all eight numbered scenarios."""
    return scenario_sweeps(context, paper_scenarios(), load_fractions)
