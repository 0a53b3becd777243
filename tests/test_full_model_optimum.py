"""The optimizer's ON set against the exhaustive full-model optimum.

The selection scores subsets with the Eq. 23 surrogate of its
``cost_model``.  :class:`tests.oracles.FullModelOptimizer` prices every
subset with the closed form's full-model ``predicted_total_power``
instead and keeps the cheapest.  On 24 load levels over 10-80% of
capacity, for the fitted seed-2012 models and ``make_system_model`` at
n = 6 and 8:

- ``cost_model="actuated"`` (the set point moves with the supply
  temperature, as the fitted actuation map says) finds the full-model
  optimum on every level, through ``solve`` and ``solve_many``;
- ``"paper"`` (the default: Eq. 23 verbatim, set point held fixed) is
  up to a few percent dearer on some levels.  Its gaps are recorded
  below as measured, and the test fails if one grows.  No answer of
  either model may undercut the exhaustive optimum.
"""

import functools

import numpy as np
import pytest

from repro.core.optimizer import JointOptimizer
from repro.experiments.common import default_context
from repro.testbed.synthetic import make_system_model
from tests.oracles import FullModelOptimizer

#: ``(levels dearer than the optimum, largest relative gap)`` of the
#: default ``"paper"`` cost model, as measured.
PAPER_GAPS = {
    ("fitted", 6): (2, 0.027775),
    ("fitted", 8): (4, 0.037884),
    ("synthetic", 6): (3, 0.042101),
    ("synthetic", 8): (1, 0.024613),
}

MODELS = sorted(PAPER_GAPS)


def _model(kind, n):
    if kind == "fitted":
        return default_context(seed=2012, n_machines=n).profiling.system_model
    return make_system_model(n=n)


def _levels(model):
    return np.linspace(0.1, 0.8, 24) * model.total_capacity


@functools.lru_cache(maxsize=None)
def _optimum(kind, n):
    """The full-model optimum's predicted power on each level."""
    model = _model(kind, n)
    return [
        result.predicted_total_power
        for result in FullModelOptimizer(model).solve_many(
            _levels(model).tolist()
        )
    ]


def _gaps(kind, n, cost_model):
    """Relative gaps to the optimum of ``solve_many`` and of ``solve``,
    level by level."""
    model = _model(kind, n)
    optimizer = JointOptimizer(model, cost_model=cost_model)
    levels = _levels(model).tolist()
    batched = [r.predicted_total_power for r in optimizer.solve_many(levels)]
    single = [optimizer.solve(load).predicted_total_power for load in levels]
    assert batched == single
    return [(p - best) / best for p, best in zip(batched, _optimum(kind, n))]


@pytest.mark.parametrize("kind,n", MODELS)
def test_actuated_cost_model_finds_the_full_model_optimum(kind, n):
    assert _gaps(kind, n, "actuated") == pytest.approx(
        [0.0] * 24, abs=1e-12
    )


@pytest.mark.parametrize("kind,n", MODELS)
def test_paper_cost_model_gap_stays_as_recorded(kind, n):
    gaps = _gaps(kind, n, "paper")
    dearer, largest = PAPER_GAPS[kind, n]
    assert min(gaps) >= -1e-12
    assert sum(gap > 1e-12 for gap in gaps) <= dearer
    assert max(gaps) <= largest + 1e-6
